"""Incremental resolver throughput and latency — delta index vs dict (extra).

The incremental resolver was rebuilt on a delta-capable CSR Entity Index
so that upserts reuse the batch weighting/pruning kernels. This bench
replays a Clean-Clean dataset through the new resolver and through a
trimmed copy of the previous dict-based implementation (kept below as the
baseline), recording:

* upserts/sec for both resolvers;
* per-upsert candidate-query latency (p50/p99);
* the compaction pause (epoch merge wall clock) at the final delta size;
* upserts/sec for the micro-batched ``submit()`` path at each coalescing
  capacity in :data:`BATCH_SIZES` (pass ``--profile-upserts`` to also
  bucket the wall clock into tokenize/index/weight/criteria phases);

and asserts the two implementations return identical candidate id lists
per upsert under JS (integer co-occurrence statistics make the weights
bit-equal), plus throughput floors: at full scale plain ``add()`` must
reach :data:`PLAIN_ADD_FLOOR` of the dict baseline, at smaller scales
only a loose trip wire applies. Scale with ``REPRO_BENCH_SCALE`` as usual;
results land in ``benchmarks/results/incremental.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from benchmarks._recorder import RECORDER
from benchmarks.conftest import bench_scale
from repro.blocking import TokenBlocking
from repro.core.weights import get_scheme
from repro.datasets.synthetic import DatasetScale, bibliographic_dataset
from repro.incremental import IncrementalMetaBlocking
from repro.utils.timer import Timer
from repro.utils.topk import TopKHeap

BASE_SIZE1 = 1_300
BASE_SIZE2 = 2_600
BASE_DUPLICATES = 900
K = 5
#: Loose floor below full scale: the rebuilt resolver must stay within
#: this factor of the dict baseline's upsert throughput (toy collections
#: are all constant overhead).
THROUGHPUT_RATIO_FLOOR = 0.05
#: Full-scale gate (``REPRO_BENCH_SCALE >= 1``): plain ``add()`` must
#: reach this fraction of the dict baseline's upserts/s.
PLAIN_ADD_FLOOR = 0.75
#: Coalescing-buffer capacities swept by the micro-batch bench.
BATCH_SIZES = (1, 8, 64, 256)
#: batch=1 must stay within this factor of the plain ``add()`` loop (the
#: submit path adds only buffer bookkeeping at capacity 1).
SINGLE_BATCH_FLOOR = 0.90


# -- the previous implementation, trimmed to the benchmarked surface --------


@dataclass
class _DictEntityState:
    keys: tuple[str, ...] = ()
    source: int = 0


class DictResolverBaseline:
    """The pre-delta-index resolver: live ``key -> members`` dict, weights
    recomputed per query from the paper's scheme formulas. Non-reciprocal,
    no purging — exactly the configuration benchmarked against."""

    def __init__(self, keys_for, scheme="JS", k=5, filtering_ratio=0.8,
                 clean_clean=False):
        self.keys_for = keys_for
        self.scheme = get_scheme(scheme)
        self.k = k
        self.filtering_ratio = filtering_ratio
        self.clean_clean = clean_clean
        self._members: dict[str, list[int]] = {}
        self._entities: list[_DictEntityState] = []

    def add(self, profile, source=0):
        entity_id = len(self._entities)
        keys = sorted(set(map(str, self.keys_for(profile))))
        keys = self._filter_keys(keys)
        self._entities.append(_DictEntityState(keys=tuple(keys), source=source))
        candidates = self._prune(entity_id, self._neighborhood(entity_id, keys))
        for key in keys:
            self._members.setdefault(key, []).append(entity_id)
        return candidates

    def _filter_keys(self, keys):
        if self.filtering_ratio >= 1.0 or not keys:
            return keys
        existing = [key for key in keys if key in self._members]
        fresh = [key for key in keys if key not in self._members]
        if not existing:
            return keys
        limit = max(1, int(self.filtering_ratio * len(existing) + 0.5))
        existing.sort(key=lambda key: (len(self._members[key]), key))
        return fresh + existing[:limit]

    def _neighborhood(self, entity_id, keys):
        counts: dict[int, int] = {}
        arcs: dict[int, float] = {}
        accumulate_arcs = self.scheme.uses_arcs_sum
        source = self._entities[entity_id].source
        for key in keys:
            members = self._members.get(key)
            if not members:
                continue
            if accumulate_arcs:
                size = len(members) + 1
                inverse = 1.0 / (size * (size - 1) / 2)
            for other in members:
                if other == entity_id:
                    continue
                if self.clean_clean and self._entities[other].source == source:
                    continue
                counts[other] = counts.get(other, 0) + 1
                if accumulate_arcs:
                    arcs[other] = arcs.get(other, 0.0) + inverse
        return {
            other: (count, arcs.get(other, 0.0))
            for other, count in counts.items()
        }

    def _prune(self, entity_id, neighborhood):
        heap: TopKHeap[int] = TopKHeap(self.k)
        weights: dict[int, float] = {}
        for other, (common, arcs_sum) in neighborhood.items():
            weight = self.scheme.weight(
                common, arcs_sum,
                len(self._entities[entity_id].keys),
                len(self._entities[other].keys),
                0, 0, max(1, len(self._members)), 0,
            )
            weights[other] = weight
            heap.push(weight, other)
        retained = [(weights[other], other) for other in heap.items()]
        retained.sort(key=lambda pair: (-pair[0], pair[1]))
        return [other for _, other in retained]


# -- the benchmark ----------------------------------------------------------


def _dataset():
    scale = bench_scale()
    return bibliographic_dataset(
        DatasetScale(
            size1=max(100, int(BASE_SIZE1 * scale)),
            size2=max(200, int(BASE_SIZE2 * scale)),
            num_duplicates=max(50, int(BASE_DUPLICATES * scale)),
        ),
        seed=7,
    )


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    position = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[position]


def test_incremental_throughput_and_equivalence(benchmark):
    dataset = _dataset()
    profiles = list(dataset.iter_profiles())
    keys_for = TokenBlocking().keys_for
    results: dict = {}

    def run_all():
        resolver = IncrementalMetaBlocking(
            keys_for, scheme="JS", k=K, filtering_ratio=1.0, clean_clean=True
        )
        latencies = []
        new_candidates = []
        with Timer() as new_timer:
            for entity_id, profile in profiles:
                start = time.perf_counter()
                candidates = resolver.add(
                    profile, source=dataset.source_of(entity_id)
                )
                latencies.append(time.perf_counter() - start)
                new_candidates.append([c.entity_id for c in candidates])

        # Compaction pause at the full delta (the worst case: the whole
        # collection is merged into a fresh CSR).
        delta_fraction = resolver.index.delta_fraction
        with Timer() as compact_timer:
            resolver.compact()

        baseline = DictResolverBaseline(
            keys_for, scheme="JS", k=K, filtering_ratio=1.0, clean_clean=True
        )
        old_candidates = []
        with Timer() as old_timer:
            for entity_id, profile in profiles:
                old_candidates.append(
                    baseline.add(profile, source=dataset.source_of(entity_id))
                )

        latencies.sort()
        results.update(
            new_seconds=new_timer.elapsed,
            old_seconds=old_timer.elapsed,
            compact_seconds=compact_timer.elapsed,
            delta_fraction=delta_fraction,
            p50=_percentile(latencies, 0.50),
            p99=_percentile(latencies, 0.99),
            new_candidates=new_candidates,
            old_candidates=old_candidates,
            num_blocks=resolver.num_blocks,
        )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    upserts = len(profiles)
    new_rate = upserts / max(results["new_seconds"], 1e-9)
    old_rate = upserts / max(results["old_seconds"], 1e-9)
    RECORDER.record(
        "incremental",
        {
            "|E|": upserts,
            "|B|": results["num_blocks"],
            "resolver": "delta-index",
            "upserts/s": round(new_rate, 1),
            "p50_ms": round(results["p50"] * 1e3, 3),
            "p99_ms": round(results["p99"] * 1e3, 3),
            "compact_s": round(results["compact_seconds"], 4),
            "delta_fraction": round(results["delta_fraction"], 3),
        },
    )
    RECORDER.record(
        "incremental",
        {
            "|E|": upserts,
            "|B|": results["num_blocks"],
            "resolver": "dict-baseline",
            "upserts/s": round(old_rate, 1),
        },
    )

    # JS co-occurrence statistics are integers, so both implementations
    # compute bit-equal weights: the candidate id lists must agree exactly,
    # per upsert, order included.
    assert results["new_candidates"] == results["old_candidates"]
    # Full scale gates plain add() against the dict baseline; toy runs
    # (REPRO_BENCH_SCALE << 1) keep a trip wire for pathological slowdowns.
    floor = (
        PLAIN_ADD_FLOOR if bench_scale() >= 1.0 else THROUGHPUT_RATIO_FLOOR
    )
    assert new_rate >= old_rate * floor, (new_rate, old_rate)
    assert results["compact_seconds"] < max(5.0, results["new_seconds"])


def test_batched_throughput_sweep(benchmark, profile_upserts):
    """Micro-batched streaming: sweep the coalescing-buffer capacity.

    Replays the stream through ``submit()`` at each capacity in
    :data:`BATCH_SIZES` plus a plain ``add()`` reference leg and the dict
    baseline, asserting every leg returns the identical per-upsert
    candidate id lists (JS statistics are integers, so batching is
    bit-exact). At full scale (``REPRO_BENCH_SCALE >= 1``) it also gates
    the headline claims: batch=64 beats the dict baseline's upserts/s and
    batch=1 stays within :data:`SINGLE_BATCH_FLOOR` of plain ``add()``.
    With ``--profile-upserts`` each leg's per-phase wall clock
    (tokenize/index/weight/criteria) is recorded alongside.
    """
    dataset = _dataset()
    profiles = list(dataset.iter_profiles())
    keys_for = TokenBlocking().keys_for
    results: dict = {}

    def timed_best_of_two(run_once):
        """Wall clock as the best of two runs — the legs execute back to
        back in one process, so a single run is exposed to GC pauses and
        frequency shifts from its predecessors."""
        first, payload = run_once()
        second, _ = run_once()
        return min(first, second), payload

    def run_dict():
        baseline = DictResolverBaseline(
            keys_for, scheme="JS", k=K, filtering_ratio=1.0, clean_clean=True
        )
        with Timer() as timer:
            candidates = [
                baseline.add(profile, source=dataset.source_of(entity_id))
                for entity_id, profile in profiles
            ]
        return timer.elapsed, candidates

    def run_plain():
        plain = IncrementalMetaBlocking(
            keys_for, scheme="JS", k=K, filtering_ratio=1.0, clean_clean=True
        )
        with Timer() as timer:
            for entity_id, profile in profiles:
                plain.add(profile, source=dataset.source_of(entity_id))
        return timer.elapsed, None

    def run_batched(batch_size):
        resolver = IncrementalMetaBlocking(
            keys_for, scheme="JS", k=K, filtering_ratio=1.0,
            clean_clean=True, batch_size=batch_size,
            profile_phases=profile_upserts,
        )
        candidates: list[list[int]] = []
        with Timer() as timer:
            for entity_id, profile in profiles:
                flushed = resolver.submit(
                    profile, source=dataset.source_of(entity_id)
                )
                if flushed is not None:
                    candidates.extend(
                        [c.entity_id for c in batch] for batch in flushed
                    )
            candidates.extend(
                [c.entity_id for c in batch] for batch in resolver.flush()
            )
        return timer.elapsed, (candidates, dict(resolver.phase_seconds))

    def run_all():
        old_seconds, old_candidates = timed_best_of_two(run_dict)
        plain_seconds, _ = timed_best_of_two(run_plain)
        legs = {}
        for batch_size in BATCH_SIZES:
            seconds, (candidates, phases) = timed_best_of_two(
                lambda: run_batched(batch_size)
            )
            legs[batch_size] = {
                "seconds": seconds,
                "candidates": candidates,
                "phases": phases,
            }
        results.update(
            old_seconds=old_seconds,
            plain_seconds=plain_seconds,
            old_candidates=old_candidates,
            legs=legs,
        )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    upserts = len(profiles)
    old_rate = upserts / max(results["old_seconds"], 1e-9)
    plain_rate = upserts / max(results["plain_seconds"], 1e-9)
    for batch_size in BATCH_SIZES:
        leg = results["legs"][batch_size]
        rate = upserts / max(leg["seconds"], 1e-9)
        record = {
            "|E|": upserts,
            "resolver": f"delta-index (batch={batch_size})",
            "upserts/s": round(rate, 1),
            "vs_dict": round(rate / old_rate, 2),
        }
        if profile_upserts:
            record.update(
                {
                    f"{phase}_ms": round(seconds * 1e3, 1)
                    for phase, seconds in leg["phases"].items()
                }
            )
        RECORDER.record("incremental", record)
        # Batching must never change the answers: every leg returns the
        # dict baseline's exact per-upsert candidate id lists, in order.
        assert leg["candidates"] == results["old_candidates"], batch_size

    if bench_scale() >= 1.0:
        # The headline perf gates only hold at full scale; toy CI runs
        # (REPRO_BENCH_SCALE << 1) check equivalence, not throughput.
        rate_64 = upserts / max(results["legs"][64]["seconds"], 1e-9)
        rate_1 = upserts / max(results["legs"][1]["seconds"], 1e-9)
        assert rate_64 >= old_rate, (rate_64, old_rate)
        assert rate_1 >= SINGLE_BATCH_FLOOR * plain_rate, (rate_1, plain_rate)


def test_compaction_pause_bounded(benchmark):
    """Auto-compaction keeps each pause far below the accumulated stream
    time (the pause is one CSR merge, not a full rebuild of resolver
    state)."""
    dataset = _dataset()
    profiles = list(dataset.iter_profiles())
    keys_for = TokenBlocking().keys_for
    pauses: list[float] = []

    def run():
        resolver = IncrementalMetaBlocking(
            keys_for, scheme="JS", k=K, filtering_ratio=1.0, clean_clean=True,
            compact_ratio=0.5,
        )
        for entity_id, profile in profiles:
            before = resolver.compactions
            start = time.perf_counter()
            resolver.add(profile, source=dataset.source_of(entity_id))
            elapsed = time.perf_counter() - start
            if resolver.compactions > before:
                pauses.append(elapsed)
        return resolver

    resolver = benchmark.pedantic(run, rounds=1, iterations=1)
    assert resolver.compactions >= 1
    RECORDER.record(
        "incremental",
        {
            "|E|": len(profiles),
            "resolver": "delta-index (auto-compact r=0.5)",
            "compactions": resolver.compactions,
            "max_pause_ms": round(max(pauses) * 1e3, 3),
        },
    )
    assert max(pauses) < 10.0
