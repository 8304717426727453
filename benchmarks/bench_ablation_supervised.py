"""Ablation — supervised vs unsupervised meta-blocking (extra).

The paper's Related Work notes that supervised meta-blocking [23] is more
accurate than the unsupervised schemes but needs labelled edges. This
ablation quantifies that on D1C: an oracle-labelled logistic regression
(the supervised ceiling) against unsupervised WEP and Reciprocal WNP. The
classifier is a weighting scheme, so the generalized rows (arXiv
2204.08801) run the other core algorithms on its match probabilities.
"""

from __future__ import annotations

from benchmarks._recorder import RECORDER
from repro.core import meta_block
from repro.evaluation import evaluate
from repro.supervised import (
    ClassifierScheme,
    EdgeFeatureExtractor,
    SupervisedMetaBlocking,
    train_from_ground_truth,
)


def test_ablation_supervised(benchmark, suite, filtered_blocks):
    dataset = suite["D1C"]
    blocks = filtered_blocks["D1C"]

    def run_supervised():
        extractor = EdgeFeatureExtractor(blocks)
        model = train_from_ground_truth(extractor, dataset.ground_truth, seed=1)
        return model, {
            mode: SupervisedMetaBlocking(model, mode=mode).prune(extractor)
            for mode in SupervisedMetaBlocking.MODES
        }

    model, supervised = benchmark.pedantic(
        run_supervised, rounds=1, iterations=1
    )

    results = {
        f"supervised-{mode}": comparisons
        for mode, comparisons in supervised.items()
    }
    # The other core algorithms on the same match probabilities.
    for algorithm in ("CNP", "WNP", "ReWNP", "RcCNP", "RcWNP"):
        results[f"supervised-{algorithm}"] = meta_block(
            blocks,
            scheme=ClassifierScheme(model),
            algorithm=algorithm,
            block_filtering_ratio=None,
        ).comparisons
    results["unsupervised-WEP"] = meta_block(
        blocks, scheme="JS", algorithm="WEP", block_filtering_ratio=None
    ).comparisons
    results["unsupervised-RcWNP"] = meta_block(
        blocks, scheme="JS", algorithm="RcWNP", block_filtering_ratio=None
    ).comparisons

    reports = {}
    for method, comparisons in results.items():
        report = evaluate(comparisons, dataset.ground_truth, blocks.cardinality)
        reports[method] = report
        RECORDER.record(
            "ablation_supervised",
            {
                "dataset": "D1C",
                "method": method,
                "||B'||": report.cardinality,
                "PC": round(report.pc, 3),
                "PQ": round(report.pq, 5),
            },
        )

    # With oracle labels, the supervised weight-based variant must beat
    # unsupervised WEP on precision at comparable recall (the [23] claim).
    assert reports["supervised-wep"].pq >= reports["unsupervised-WEP"].pq
    assert reports["supervised-wep"].pc >= 0.9 * reports["unsupervised-WEP"].pc
