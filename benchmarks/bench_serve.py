"""Sustained request throughput against the ``repro serve`` daemon.

Boots the asyncio daemon on a Unix socket and replays a Clean-Clean
dataset through the synchronous SDK at three coalescing batch sizes
(:data:`COALESCING`): singles drive one ``upsert`` round trip per profile,
the larger sizes ship ``upsert_many`` chunks (a single connection awaits
each reply before the next frame, so client-side chunking — not
server-side buffering — is what amortises the round trip). Every tenth
request is a top-k ``query``. Each leg runs once for CBS and once for JS
and asserts the daemon's candidate output — per upsert and for the final
``candidate_pairs("CNP")`` export — is bit-identical to an in-process
:class:`IncrementalMetaBlocking` fed the same sequence. The timer covers
the daemon's requests only: the replies are kept and the mirror replays
the sequence after it.

Records requests/s, upserts/s, and the server-reported p50/p99 upsert
latency per leg into ``benchmarks/results/serve.json``. At full scale
(``REPRO_BENCH_SCALE >= 1``) it also gates: each scheme sustains at least
:data:`MIN_REQUESTS` mixed requests, and the 256-chunk leg's upsert
throughput beats the single-upsert leg (the round trip dominates
singles).

The durability sweep (:func:`test_serve_durability_overhead`) re-runs the
CBS ingest with a write-ahead log attached under each fsync policy
(``off``/``batch``/``always``) at coalescing 64 and 256, measures the
post-shutdown recovery time of the logged stream, and records the
per-policy throughput next to the non-durable baseline. Every round runs
each (policy, coalescing) leg once, so the legs interleave and share the
host's slow and fast spells; each leg records its median over
:data:`DURABILITY_ROUNDS` rounds with the q1–q3 spread of its upserts/s.
Full scale gates the price of group commit on those medians: the
``batch`` policy at coalescing 256 must hold at least
:data:`MIN_DURABLE_FRACTION` of the baseline's upsert throughput.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks._recorder import RECORDER
from benchmarks.conftest import bench_scale
from repro.blocking import TokenBlocking
from repro.client import ResolverClient
from repro.datasets.synthetic import DatasetScale, bibliographic_dataset
from repro.incremental import IncrementalMetaBlocking
from repro.serve import BackgroundServer, ResolverServer
from repro.utils.timer import Timer

BASE_SIZE1 = 600
BASE_SIZE2 = 1_200
BASE_DUPLICATES = 400
K = 5
#: Client-side coalescing batch sizes swept per scheme.
COALESCING = (1, 64, 256)
#: Full-scale floor on mixed requests served per scheme across the sweep.
MIN_REQUESTS = 1_000
#: Durability sweep: fsync policies (None = no WAL) x coalescing sizes.
DURABILITY_POLICIES = (None, "off", "batch", "always")
DURABILITY_COALESCING = (64, 256)
#: Interleaved rounds per durability leg; each leg records its median.
DURABILITY_ROUNDS = 3
#: Full-scale floor on fsync=batch throughput vs the non-durable baseline.
MIN_DURABLE_FRACTION = 0.7


def _dataset():
    scale = bench_scale()
    return bibliographic_dataset(
        DatasetScale(
            size1=max(60, int(BASE_SIZE1 * scale)),
            size2=max(120, int(BASE_SIZE2 * scale)),
            num_duplicates=max(40, int(BASE_DUPLICATES * scale)),
        ),
        seed=11,
    )


def _resolver(scheme: str, **kwargs) -> IncrementalMetaBlocking:
    return IncrementalMetaBlocking(
        TokenBlocking().keys_for,
        scheme=scheme,
        k=K,
        filtering_ratio=1.0,
        clean_clean=True,
        **kwargs,
    )


def _run_leg(scheme, coalescing, dataset, profiles, socket_path):
    """One daemon boot: replay the stream under the timer, keeping every
    reply; then feed an in-process mirror the same sequence, untimed, and
    compare."""
    server = ResolverServer(
        _resolver(scheme),
        path=socket_path,
        flush_size=coalescing,
        flush_interval=0.01,
    )
    sources = [dataset.source_of(entity_id) for entity_id, _ in profiles]
    # upsert_many chunks as (start, stop); stop - 1 is the chunk's last id.
    chunks = [
        (start, min(start + coalescing, len(profiles)))
        for start in range(0, len(profiles), coalescing)
    ]
    replies: list = []
    with BackgroundServer(server) as background:
        with ResolverClient(background.address, timeout=120) as client:
            with Timer() as timer:
                if coalescing == 1:
                    for position, (_, profile) in enumerate(profiles):
                        replies.append(
                            client.upsert(profile, source=sources[position])
                        )
                        if position % 10 == 9:
                            target = (position * 13) % (position + 1)
                            replies.append(client.query(target))
                else:
                    for start, stop in chunks:
                        batch = [profile for _, profile in profiles[start:stop]]
                        replies.append(
                            client.upsert_many(batch, sources=sources[start:stop])
                        )
                        replies.append(client.query((start * 13) % stop))
            exported = client.candidate_pairs("CNP")
            stats = client.stats()
            client.shutdown()

    # Every reply, and the full pruned graph, is bit-identical to the mirror.
    mirror = _resolver(scheme)
    expected: list = []
    if coalescing == 1:
        for position, (_, profile) in enumerate(profiles):
            expected.append(
                (position, mirror.add(profile, source=sources[position]))
            )
            if position % 10 == 9:
                target = (position * 13) % (position + 1)
                expected.append(mirror.query(target))
    else:
        for start, stop in chunks:
            batch = [profile for _, profile in profiles[start:stop]]
            expected.append((
                list(range(start, stop)),
                mirror.add_batch(batch, sources=sources[start:stop]),
            ))
            expected.append(mirror.query((start * 13) % stop))
    assert replies == expected
    assert exported == [tuple(pair) for pair in mirror.candidate_pairs("CNP")]
    return len(replies), timer.elapsed, stats


@pytest.mark.parametrize("scheme", ["CBS", "JS"])
def test_serve_sustained_mixed_requests(benchmark, tmp_path, scheme):
    dataset = _dataset()
    profiles = list(dataset.iter_profiles())
    legs: dict = {}

    def run_all():
        for coalescing in COALESCING:
            socket_path = tmp_path / f"{scheme}-{coalescing}.sock"
            requests, elapsed, stats = _run_leg(
                scheme, coalescing, dataset, profiles, socket_path
            )
            legs[coalescing] = {
                "requests": requests,
                "elapsed": elapsed,
                "stats": stats,
            }

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    upserts = len(profiles)
    for coalescing in COALESCING:
        leg = legs[coalescing]
        elapsed = max(leg["elapsed"], 1e-9)
        upsert_latency = leg["stats"]["latency_ms"].get("upsert", {})
        RECORDER.record(
            "serve",
            {
                "|E|": upserts,
                "scheme": scheme,
                "coalescing": coalescing,
                "requests": leg["requests"],
                "requests/s": round(leg["requests"] / elapsed, 1),
                "upserts/s": round(upserts / elapsed, 1),
                "p50_ms": upsert_latency.get("p50", 0.0),
                "p99_ms": upsert_latency.get("p99", 0.0),
            },
        )

    if bench_scale() >= 1.0:
        # Full-scale gates only; toy CI runs check equivalence, not rates.
        total_requests = sum(leg["requests"] for leg in legs.values())
        assert total_requests >= MIN_REQUESTS, total_requests
        rate_1 = upserts / max(legs[1]["elapsed"], 1e-9)
        rate_256 = upserts / max(legs[256]["elapsed"], 1e-9)
        assert rate_256 >= rate_1, (rate_256, rate_1)


def _run_durable_leg(coalescing, policy, dataset, profiles, socket_path, wal_dir):
    """One daemon boot with (or without) a WAL; pure ingest, no mirror."""
    resolver = _resolver(
        "CBS",
        **({} if policy is None else
           {"wal_dir": wal_dir, "fsync_policy": policy}),
    )
    server = ResolverServer(
        resolver,
        path=socket_path,
        flush_size=coalescing,
        flush_interval=0.01,
    )
    with BackgroundServer(server) as background:
        with ResolverClient(background.address, timeout=120) as client:
            with Timer() as timer:
                for start in range(0, len(profiles), coalescing):
                    chunk = profiles[start : start + coalescing]
                    batch = [profile for _, profile in chunk]
                    sources = [
                        dataset.source_of(entity_id) for entity_id, _ in chunk
                    ]
                    entity_ids, _ = client.upsert_many(batch, sources=sources)
                    assert entity_ids[0] == start
            stats = client.stats()
            client.shutdown()
    recovery_seconds = None
    if policy is not None:
        with Timer() as recovery_timer:
            recovered, report = IncrementalMetaBlocking.recover(wal_dir)
        assert len(recovered) == len(profiles), report.to_dict()
        recovery_seconds = recovery_timer.elapsed
    return timer.elapsed, stats, recovery_seconds


def test_serve_durability_overhead(benchmark, tmp_path):
    dataset = _dataset()
    profiles = list(dataset.iter_profiles())
    legs: dict = {
        (coalescing, policy): {"elapsed": [], "stats": [], "recovery_s": []}
        for coalescing in DURABILITY_COALESCING
        for policy in DURABILITY_POLICIES
    }

    def run_all():
        for round_index in range(DURABILITY_ROUNDS):
            for (coalescing, policy), leg in legs.items():
                label = f"{coalescing}-{policy or 'none'}-{round_index}"
                elapsed, stats, recovery_seconds = _run_durable_leg(
                    coalescing,
                    policy,
                    dataset,
                    profiles,
                    tmp_path / f"durable-{label}.sock",
                    tmp_path / f"wal-{label}",
                )
                leg["elapsed"].append(elapsed)
                leg["stats"].append(stats)
                if recovery_seconds is not None:
                    leg["recovery_s"].append(recovery_seconds)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    upserts = len(profiles)

    def rate(elapsed: float) -> float:
        return upserts / max(elapsed, 1e-9)

    medians = {}
    for (coalescing, policy), leg in legs.items():
        medians[(coalescing, policy)] = rate(float(np.median(leg["elapsed"])))
        wal_stats = [(stats or {}).get("wal") or {} for stats in leg["stats"]]
        fsync_p99 = [
            (wal.get("fsync_ms") or {}).get("p99", 0.0) for wal in wal_stats
        ]
        q1, q3 = np.percentile([rate(e) for e in leg["elapsed"]], [25, 75])
        RECORDER.record(
            "serve",
            {
                "|E|": upserts,
                "scheme": "CBS",
                "coalescing": coalescing,
                "fsync": policy or "none",
                "upserts/s": round(medians[(coalescing, policy)], 1),
                "q1-q3": [round(float(q1), 1), round(float(q3), 1)],
                "fsyncs": int(
                    np.median([wal.get("fsyncs", 0) for wal in wal_stats])
                ),
                "fsync_p99_ms": round(float(np.median(fsync_p99)), 3),
                "recovery_s": (
                    round(float(np.median(leg["recovery_s"])), 3)
                    if leg["recovery_s"]
                    else None
                ),
            },
        )

    if bench_scale() >= 1.0:
        baseline = medians[(256, None)]
        durable = medians[(256, "batch")]
        assert durable >= MIN_DURABLE_FRACTION * baseline, (durable, baseline)
