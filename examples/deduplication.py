#!/usr/bin/env python3
"""Dirty ER (deduplication) of a single noisy movie catalogue.

Scenario: a catalogue assembled from two feeds contains the same movies
twice under different representations — the paper's D2D workload. The
output of Dirty ER is a set of equivalence clusters.

Run with:  python examples/deduplication.py
"""

import tempfile

from repro import BlockPurging, ExecutionConfig, TokenBlocking, evaluate
from repro.core import meta_block
from repro.datasets import movies_dataset
from repro.matching import JaccardMatcher, connected_components, resolve


def main() -> None:
    # The paper builds its Dirty datasets by merging the two clean
    # collections of the Clean-Clean ones; .to_dirty() is that operation.
    dataset = movies_dataset(seed=3).to_dirty()
    print(f"dataset: {dataset}\n")

    blocks = BlockPurging().process(TokenBlocking().build(dataset))
    print(
        "blocks: "
        f"{evaluate(blocks, dataset.ground_truth, dataset.brute_force_comparisons)}"
    )

    # Dirty ER graphs are bigger and noisier than Clean-Clean ones (paper
    # Section 6.3); Block Filtering plus Reciprocal WNP keeps the workload
    # tractable without giving up recall.
    result = meta_block(
        blocks, scheme="ECBS", algorithm="RcWNP", block_filtering_ratio=0.8
    )
    report = evaluate(
        result.comparisons, dataset.ground_truth, blocks.cardinality
    )
    print(f"meta-blocked: {report}")

    # The pruning stage also fans out across a thread pool: every thread
    # reads the same Entity Index arrays, nothing is copied, and the
    # retained comparisons are identical to serial. All execution knobs
    # live on one ExecutionConfig.
    parallel = meta_block(
        blocks,
        scheme="ECBS",
        algorithm="RcWNP",
        block_filtering_ratio=0.8,
        execution=ExecutionConfig(parallel=2),
    )
    assert set(parallel.comparisons.pairs) == set(result.comparisons.pairs)
    print(
        f"parallel run ({parallel.effective_workers} workers, "
        f"'{parallel.parallel_backend}' backend): identical comparisons"
    )

    # For collections whose retained comparisons don't fit in RAM, a
    # spill_dir (or memory_budget) makes the workers write .npy shards to
    # disk; result.comparisons is then a memory-mapped ComparisonView —
    # iterable, len()-able and bit-identical to the eager run.
    with tempfile.TemporaryDirectory() as spill_dir:
        spilled = meta_block(
            blocks,
            scheme="ECBS",
            algorithm="RcWNP",
            block_filtering_ratio=0.8,
            execution=ExecutionConfig(parallel=2, spill_dir=spill_dir),
        )
        assert list(spilled.comparisons) == list(parallel.comparisons)
        batches = sum(1 for _ in spilled.stream(batch_size=65536))
        print(
            f"spilled run: manifest at {spilled.spill_manifest}, "
            f"{spilled.comparisons.cardinality:,} comparisons streamed "
            f"back in {batches} batches"
        )

    matcher = JaccardMatcher(dataset, threshold=0.5)
    resolution = resolve(result.comparisons, matcher)
    clusters = connected_components(resolution.matches, dataset.num_entities)

    print(f"\nfound {len(clusters)} duplicate clusters; largest examples:")
    for cluster in sorted(clusters, key=len, reverse=True)[:3]:
        print(f"  cluster of {len(cluster)}:")
        for entity_id in cluster[:4]:
            profile = dataset.profile(entity_id)
            title = (profile.values("title") or profile.values("name") or ["?"])[0]
            print(f"    [{profile.identifier}] {title!r}")

    truth_detected = dataset.ground_truth.detected_in(resolution.matches)
    print(f"\ncluster recall vs gold standard: "
          f"{len(truth_detected) / len(dataset.ground_truth):.3f}")


if __name__ == "__main__":
    main()
