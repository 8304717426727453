"""Wire protocol of the ``repro serve`` daemon.

The protocol is deliberately boring: newline-delimited JSON frames (UTF-8,
one object per line) over a TCP or Unix-domain stream. Every request
carries a client-chosen ``id`` echoed verbatim in the response, a ``verb``,
and verb-specific fields; every response is either

``{"id": ..., "ok": true, "result": {...}}``

or

``{"id": ..., "ok": false, "error": {"code": "...", "message": "..."}}``.

Responses to one connection come back in request order, so a synchronous
client can simply read one line per request. Frames larger than the
server's ``max_frame_bytes`` are rejected with :data:`ERR_FRAME_TOO_LARGE`
and the connection is closed (the stream cannot be re-synchronised once a
frame overruns); every other error leaves the connection usable.

Verbs
-----
``ping``
    Liveness probe; returns the resolver epoch.
``health``
    Serving status, answered instantly even while the daemon replays its
    write-ahead log at startup: ``status`` (``recovering``/``ready``/
    ``failed``), queue depth, the recovery report once available, and
    WAL/fsync latency percentiles when durability is on. Never touches
    the resolver thread.
``upsert``
    Insert one profile (``profile`` + optional ``source``) or a batch
    (``profiles`` + optional ``sources``). Single upserts coalesce through
    the resolver's ``submit()`` buffer — the response (entity id + pruned
    candidates) arrives once the buffer flushes, batch upserts commit as
    one fused ``add_batch``.
``query``
    Top-``k`` weighted neighbors of an existing ``entity_id`` (read-only;
    pending upserts are committed first so the answer is current).
``candidates``
    Full pruned-graph export for ``algorithm`` (CNP/WNP/ReCNP/ReWNP/
    RcCNP/RcWNP): every retained comparison as ``[left, right]`` pairs.
``compact``
    Merge the delta index into a fresh base CSR now.
``stats``
    Server + resolver statistics: epoch, profiles, pending, per-phase
    upsert timings, request counts, qps and per-verb latency percentiles.
    The resolver's ``execution`` field round-trips through
    :meth:`repro.core.execution.ExecutionConfig.to_dict`/``from_dict``.
``shutdown``
    Graceful stop: drain in-flight requests, flush the coalescing buffer,
    optionally compact (``compact: true``), respond, close.

Profiles travel as ``{"identifier": str, "attributes": [[name, value],
...]}`` (order and duplicates preserved — the schema-free profile model);
a plain ``{name: value_or_list}`` mapping is also accepted and goes
through :meth:`repro.datamodel.profiles.EntityProfile.from_dict`.
Candidates come back as ``{"entity_id", "weight", "common_blocks"}``
objects, descending weight.

This module is shared by the asyncio server and the synchronous client
SDK, and is import-light (stdlib + the profile datamodel only).
"""

from __future__ import annotations

import json
from typing import Any

from repro.datamodel.profiles import Attribute, EntityProfile

#: Default ceiling on one frame's encoded size (server and client side).
MAX_FRAME_BYTES = 1 << 20

#: Verbs the daemon understands.
VERBS = (
    "ping",
    "health",
    "upsert",
    "query",
    "candidates",
    "compact",
    "stats",
    "shutdown",
)

# Error codes — the machine-readable half of every failure response.
ERR_BAD_FRAME = "bad-frame"  #: unparseable or non-object frame
ERR_FRAME_TOO_LARGE = "frame-too-large"  #: frame exceeded max_frame_bytes
ERR_UNKNOWN_VERB = "unknown-verb"  #: verb not in :data:`VERBS`
ERR_INVALID_REQUEST = "invalid-request"  #: missing/ill-typed fields
ERR_OVERLOADED = "overloaded"  #: bounded request queue is full
ERR_SHUTTING_DOWN = "shutting-down"  #: graceful shutdown in progress
ERR_RECOVERING = "recovering"  #: WAL replay in progress; retry shortly
ERR_INTERNAL = "internal"  #: unexpected failure executing the verb

#: Codes a client may safely retry after a backoff: the request was never
#: executed (queue full) or the daemon is restarting/recovering.
RETRYABLE_ERROR_CODES = (ERR_OVERLOADED, ERR_RECOVERING)


def encode_frame(payload: dict) -> bytes:
    """One wire frame: compact JSON plus the newline terminator."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one frame; raises ``ValueError`` on garbage or non-objects."""
    decoded = json.loads(line.decode("utf-8"))
    if not isinstance(decoded, dict):
        raise ValueError(f"frame must be a JSON object, got {type(decoded).__name__}")
    return decoded


def wire_integer(value: Any, field: str) -> int:
    """``value`` when it is a JSON integer; ``ValueError`` otherwise.

    ``json`` decodes ``1.7``, ``Infinity`` and ``NaN`` to floats and
    ``true`` to a bool; ``int()`` would truncate, overflow on or coerce
    them, so integer fields accept exactly ``int``.
    """
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def ok_response(request_id: Any, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str, message: str) -> dict:
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def profile_to_wire(profile: EntityProfile) -> dict:
    """Encode a profile losslessly (attribute order and duplicates kept)."""
    return {
        "identifier": profile.identifier,
        "attributes": [[a.name, a.value] for a in profile.attributes],
    }


def profile_from_wire(data: Any) -> EntityProfile:
    """Decode either wire form back into an :class:`EntityProfile`."""
    if not isinstance(data, dict):
        raise ValueError(f"profile must be an object, got {type(data).__name__}")
    if "identifier" not in data:
        raise ValueError("profile is missing its 'identifier'")
    identifier = str(data["identifier"])
    attributes = data.get("attributes", [])
    if isinstance(attributes, dict):
        return EntityProfile.from_dict(identifier, attributes)
    decoded = []
    for entry in attributes:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"attribute entries must be [name, value] pairs, got {entry!r}")
        decoded.append(Attribute(str(entry[0]), str(entry[1])))
    return EntityProfile(identifier, tuple(decoded))


def candidate_to_wire(candidate) -> dict:
    """Encode a resolver :class:`~repro.incremental.Candidate`."""
    return {
        "entity_id": candidate.entity_id,
        "weight": candidate.weight,
        "common_blocks": candidate.common_blocks,
    }


__all__ = [
    "ERR_BAD_FRAME",
    "ERR_FRAME_TOO_LARGE",
    "ERR_INTERNAL",
    "ERR_INVALID_REQUEST",
    "ERR_OVERLOADED",
    "ERR_RECOVERING",
    "ERR_SHUTTING_DOWN",
    "ERR_UNKNOWN_VERB",
    "MAX_FRAME_BYTES",
    "RETRYABLE_ERROR_CODES",
    "VERBS",
    "candidate_to_wire",
    "decode_frame",
    "encode_frame",
    "error_response",
    "ok_response",
    "profile_from_wire",
    "profile_to_wire",
    "wire_integer",
]
