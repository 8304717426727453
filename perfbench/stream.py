"""``stream-upsert``: the in-process resolver fed one profile at a time.

An ``api.stream_resolver(scheme="JS", k=5, clean_clean=True)`` receives a
D1-like bibliographic stream through ``add()`` in a closed loop, answers a
``query`` every 10th upsert, and ends with one ``candidate_pairs("RcWNP")``
export. No WAL, wire protocol or batch executor is involved: this is the
single-upsert path of ``incremental`` and ``blockprocessing.delta_index``.
"""

from __future__ import annotations

import hashlib
import random
import time

from common import Calibration, median, timing, vm_hwm_mb

QUERY_EVERY = 10
EXPORT_ALGORITHM = "RcWNP"


def make_inputs(seed: int, sizes: dict):
    """The D1-like stream, both sources interleaved in a seeded order."""
    from repro.datasets.synthetic import DEFAULT_SCALES, bibliographic_dataset

    dataset = bibliographic_dataset(
        DEFAULT_SCALES["D1"].scaled(sizes["d1"]), seed=seed
    )
    stream = [
        (profile, dataset.source_of(entity_id))
        for entity_id, profile in dataset.iter_profiles()
    ]
    random.Random(seed).shuffle(stream)
    return stream


def query_target(position: int) -> int:
    """A deterministic existing entity to query after ``position`` upserts."""
    return (position * 13) % (position + 1)


def one_pass(api, stream, keys_for=None, profile_phases=False) -> dict:
    """Stream every profile into a fresh resolver, then export."""
    blocking = "token"
    if keys_for is not None:
        from repro.blocking import TokenBlocking

        blocking = TokenBlocking()
        blocking.keys_for = keys_for
    resolver = api.stream_resolver(
        blocking=blocking,
        scheme="JS",
        k=5,
        clean_clean=True,
        profile_phases=profile_phases,
    )
    add, query = resolver.add, resolver.query
    clock = time.perf_counter
    upserts, queries, outputs = [], [], []
    emitted = 0
    started = clock()
    for position, (profile, source) in enumerate(stream):
        tick = clock()
        candidates = add(profile, source=source)
        tock = clock()
        upserts.append(tock - tick)
        outputs.append(candidates)
        emitted += len(candidates)
        if position % QUERY_EVERY == QUERY_EVERY - 1:
            neighbors = query(query_target(position))
            queries.append(clock() - tock)
            outputs.append(neighbors)
    write_elapsed = clock() - started
    tick = clock()
    pairs = resolver.candidate_pairs(EXPORT_ALGORITHM).pairs
    export = clock() - tick
    return {
        "resolver": resolver,
        "write_elapsed": write_elapsed,
        "upserts": upserts,
        "queries": queries,
        "export": export,
        "pairs": pairs,
        "outputs": outputs,
        "emitted": emitted,
        "elapsed": write_elapsed + export,
    }


def _digest(result) -> str:
    digest = hashlib.sha256()
    for candidates in result["outputs"]:
        for candidate in candidates:
            digest.update(
                b"%d:%r:%d;"
                % (candidate.entity_id, candidate.weight, candidate.common_blocks)
            )
        digest.update(b"|")
    for left, right in result["pairs"]:
        digest.update(b"%d,%d;" % (left, right))
    return digest.hexdigest()


def run(seed: int, seconds: float, sizes: dict, trace: bool) -> dict:
    from repro import api

    stream = make_inputs(seed, sizes)
    one_pass(api, stream)  # warm-up
    calibration = Calibration()
    calibration.sample()
    passes, traced_passes = [one_pass(api, stream)], []
    reference = _digest(passes[0])
    mismatches: "list[str]" = []

    def settle(result: dict, label: str) -> dict:
        # Check, then keep only timings: memory must not grow per pass.
        if _digest(result) != reference:
            mismatches.append(f"{label} differs from the first pass")
        result.pop("outputs")
        result.pop("pairs")
        return result

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        traced_passes.append(settle(_traced_pass(api, stream, tracer), "traced pass"))
    else:
        deadline = time.perf_counter() + seconds
        while len(passes) < 3 or time.perf_counter() < deadline:
            calibration.sample()
            result = settle(one_pass(api, stream), f"pass {len(passes)}")
            del result["resolver"]
            passes.append(result)
        calibration.sample()
    peak_rss_mb = vm_hwm_mb()

    # -- correctness, outside every timed region -----------------------------
    # The documented equivalence: the export equals batch meta_block over
    # the streamed collection (no Block Filtering), same scheme.
    first = passes[0]
    batch = api.meta_block(
        first["resolver"].to_block_collection(),
        scheme="JS",
        algorithm=EXPORT_ALGORITHM,
        block_filtering_ratio=None,
    )
    if sorted(batch.comparisons.pairs) != sorted(first["pairs"]):
        mismatches.append(f"{EXPORT_ALGORITHM} export != batch meta_block")

    every = passes + traced_passes
    attempted = sum(
        len(p["upserts"]) + len(p["queries"]) + 1 for p in every
    )
    # Every pass replays identical work, so each upsert's fastest pass is
    # its time on an undisturbed host (whose speed drifts by tens of
    # percent), scaled to the calibrated reference speed; the report keeps
    # the raw medians and tails.
    factor = calibration.factor()
    best_upserts = [
        factor * min(samples) for samples in zip(*(p["upserts"] for p in passes))
    ]
    best_queries = [
        factor * min(samples) for samples in zip(*(p["queries"] for p in passes))
    ]
    upsert_ms = timing([s for p in passes for s in p["upserts"]], 1e3)
    query_ms = timing([s for p in passes for s in p["queries"]], 1e3)
    exports = [p["export"] for p in passes]
    out = {
        "sizes": {**sizes, "profiles": len(stream), "query_every": QUERY_EVERY},
        "attempted": attempted,
        "failed": len(mismatches),
        "mismatches": mismatches,
        "named": {
            "upserts_per_s": {
                "unit": "1/s",
                "value": median([len(p["upserts"]) / p["write_elapsed"] for p in passes]),
            },
            "upsert_ms": {"unit": "ms", **upsert_ms},
            "query_ms": {"unit": "ms", **query_ms},
            "export_s": {"unit": "s", **timing(exports)},
            "peak_rss_mb": {"unit": "MB", "value": peak_rss_mb},
            "retained": {"unit": "count", "value": len(first["pairs"])},
            "calibration": calibration.summary(),
        },
        "generic": {
            "graph_s": factor * min(exports),
            "ops_per_s": len(stream) / (sum(best_upserts) + sum(best_queries)),
            "op_p50_ms": timing(best_upserts, 1e3)["p50"],
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        out["layers"] = _layers(tracer, passes[0], traced_passes[0])
        out["spans"] = tracer.dump()
    return out


def _traced_pass(api, stream, tracer) -> dict:
    """One pass with spans around the resolver's public calls, the
    ``keys_for`` callable it is handed, and its phase counters on."""
    from repro.blocking import TokenBlocking
    from repro.incremental import IncrementalMetaBlocking

    keys_for = tracer.wrap(TokenBlocking().keys_for, "blocking.keys_for")
    tracer.patch(IncrementalMetaBlocking, "add", "incremental.add")
    tracer.patch(IncrementalMetaBlocking, "query", "incremental.query")
    tracer.patch(
        IncrementalMetaBlocking, "candidate_pairs", "incremental.export"
    )
    try:
        result = one_pass(api, stream, keys_for=keys_for, profile_phases=True)
    finally:
        tracer.restore()
    return result


def _layers(tracer, untraced, traced) -> dict:
    own = tracer.self_times()
    resolver = traced["resolver"]
    phases = resolver.phase_seconds
    upserts = len(traced["upserts"])
    span_names = (
        "blocking.keys_for",
        "incremental.add",
        "incremental.query",
        "incremental.export",
    )
    layers = {
        "blocking.keys_for_s": own.get("blocking.keys_for", 0.0),
        "incremental.tokenize_s": phases["tokenize"],
        "incremental.index_s": phases["index"],
        "incremental.weight_s": phases["weight"],
        "incremental.criteria_s": phases["criteria"],
        "incremental.add_s": own.get("incremental.add", 0.0),
        "incremental.query_s": own.get("incremental.query", 0.0),
        "incremental.export_s": own.get("incremental.export", 0.0),
        "incremental.delta_fraction": resolver.stats()["delta_fraction"],
        "incremental.candidates_per_upsert": traced["emitted"] / upserts,
        "stream-upsert.coverage": sum(
            own.get(name, 0.0) for name in span_names
        ) / traced["elapsed"],
        "stream-upsert.trace_overhead": traced["elapsed"]
        / untraced["elapsed"]
        - 1.0,
    }
    return layers
