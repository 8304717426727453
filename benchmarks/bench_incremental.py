"""Incremental resolver throughput and latency — delta index vs dict (extra).

The incremental resolver was rebuilt on a delta-capable CSR Entity Index
so that upserts reuse the batch weighting/pruning kernels. This bench
replays a Clean-Clean dataset through the new resolver and through a
trimmed copy of the previous dict-based implementation (kept below as the
baseline), recording:

* upserts/sec for both resolvers;
* per-upsert candidate-query latency (p50/p99);
* the compaction pause (epoch merge wall clock) at the final delta size;
* upserts/sec for plain ``add()`` and for the micro-batched ``submit()``
  path at each coalescing capacity in :data:`BATCH_SIZES`, as medians of
  :data:`SWEEP_ROUNDS` interleaved rounds (pass ``--profile-upserts`` to
  also bucket the wall clock into tokenize/index/weight/criteria phases);

and asserts the two implementations return identical candidate id lists
per upsert under JS (integer co-occurrence statistics make the weights
bit-equal), plus throughput floors: at full scale plain ``add()`` must
reach :data:`PLAIN_ADD_FLOOR` of the dict baseline, at smaller scales
only a loose trip wire applies. Scale with ``REPRO_BENCH_SCALE`` as usual;
results land in ``benchmarks/results/incremental.json``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

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
#: Coalescing-buffer capacities swept by the micro-batch bench. Small
#: convoys (2, 4) are where one-member query runs appear inside batches.
BATCH_SIZES = (1, 2, 4, 8, 64, 256)
#: batch=1 must stay within this factor of the plain ``add()`` loop (the
#: submit path adds only buffer bookkeeping at capacity 1).
SINGLE_BATCH_FLOOR = 0.90
#: Interleaved rounds of the micro-batch sweep: every round runs each leg
#: once, odd rounds in reverse order, and each leg records its median.
SWEEP_ROUNDS = 5


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
    bit-exact). Every one of :data:`SWEEP_ROUNDS` rounds runs each leg
    once, odd rounds in reverse order, so the legs interleave, share the
    host's slow and fast spells and take every position in a round; each
    leg records its median upserts/s with the q1-q3 spread.
    At full scale (``REPRO_BENCH_SCALE >= 1``) the medians gate the
    headline claims: batch=64 beats the dict baseline's upserts/s and
    batch=1 stays within :data:`SINGLE_BATCH_FLOOR` of plain ``add()``.
    With ``--profile-upserts`` each leg's per-phase wall clock
    (tokenize/index/weight/criteria, medians over the rounds) is recorded
    alongside.
    """
    dataset = _dataset()
    profiles = list(dataset.iter_profiles())
    keys_for = TokenBlocking().keys_for

    def run_dict():
        baseline = DictResolverBaseline(
            keys_for, scheme="JS", k=K, filtering_ratio=1.0, clean_clean=True
        )
        with Timer() as timer:
            candidates = [
                baseline.add(profile, source=dataset.source_of(entity_id))
                for entity_id, profile in profiles
            ]
        return timer.elapsed, candidates, None

    def run_plain():
        plain = IncrementalMetaBlocking(
            keys_for, scheme="JS", k=K, filtering_ratio=1.0, clean_clean=True,
            profile_phases=profile_upserts,
        )
        candidates: list[list[int]] = []
        with Timer() as timer:
            for entity_id, profile in profiles:
                candidates.append([
                    c.entity_id
                    for c in plain.add(
                        profile, source=dataset.source_of(entity_id)
                    )
                ])
        return timer.elapsed, candidates, dict(plain.phase_seconds)

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
        return timer.elapsed, candidates, dict(resolver.phase_seconds)

    runs = {"dict": run_dict, "plain": run_plain}
    for batch_size in BATCH_SIZES:
        runs[batch_size] = lambda batch_size=batch_size: run_batched(batch_size)
    legs = {leg: {"seconds": [], "candidates": [], "phases": []} for leg in runs}

    def run_all():
        for round_index in range(SWEEP_ROUNDS):
            order = list(runs) if round_index % 2 == 0 else list(runs)[::-1]
            for leg in order:
                # Free the previous leg's resolver before the clock starts,
                # so no leg pays for collecting another leg's garbage.
                gc.collect()
                seconds, candidates, phases = runs[leg]()
                legs[leg]["seconds"].append(seconds)
                legs[leg]["candidates"].append(candidates)
                legs[leg]["phases"].append(phases)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    upserts = len(profiles)

    def rate(seconds: float) -> float:
        return upserts / max(seconds, 1e-9)

    medians = {
        leg: rate(float(np.median(legs[leg]["seconds"]))) for leg in legs
    }
    expected = legs["dict"]["candidates"][0]
    for leg in ["plain", *BATCH_SIZES]:
        q1, q3 = np.percentile([rate(s) for s in legs[leg]["seconds"]], [25, 75])
        record = {
            "|E|": upserts,
            "resolver": (
                "delta-index (plain add)"
                if leg == "plain"
                else f"delta-index (batch={leg})"
            ),
            "upserts/s": round(medians[leg], 1),
            "q1-q3": [round(float(q1), 1), round(float(q3), 1)],
            "vs_dict": round(medians[leg] / medians["dict"], 2),
        }
        if profile_upserts:
            record.update(
                {
                    f"{phase}_ms": round(
                        float(
                            np.median([p[phase] for p in legs[leg]["phases"]])
                        )
                        * 1e3,
                        1,
                    )
                    for phase in legs[leg]["phases"][0]
                }
            )
        RECORDER.record("incremental", record)
        # Batching must never change the answers: every leg returns the
        # dict baseline's exact per-upsert candidate id lists, in order.
        for candidates in legs[leg]["candidates"]:
            assert candidates == expected, leg

    if bench_scale() >= 1.0:
        # The headline perf gates only hold at full scale; toy CI runs
        # (REPRO_BENCH_SCALE << 1) check equivalence, not throughput.
        assert medians[64] >= medians["dict"], (medians[64], medians["dict"])
        assert medians[1] >= SINGLE_BATCH_FLOOR * medians["plain"], (
            medians[1],
            medians["plain"],
        )


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
