"""Cross-backend pruned-output equivalence sweep.

The three weighting backends compute the same weighted blocking graph, so
every pruning algorithm must retain the same comparison set on each of them,
for every weighting scheme. The fixture is a bilateral (Clean-Clean)
collection that deliberately includes a singleton block (one side empty) and
an empty block, the degenerate shapes most likely to diverge between the
per-comparison, ScanCount and CSR code paths.
"""

from __future__ import annotations

import pytest

from repro.core.edge_weighting import (
    OptimizedEdgeWeighting,
    OriginalEdgeWeighting,
)
from repro.core.parallel import PARALLEL_BACKENDS, ParallelMetaBlockingExecutor
from repro.core.pruning import PRUNING_ALGORITHMS
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.core.weights import WEIGHTING_SCHEMES
from repro.datamodel.blocks import Block, BlockCollection

BACKENDS = {
    "optimized": OptimizedEdgeWeighting,
    "original": OriginalEdgeWeighting,
    "vectorized": VectorizedEdgeWeighting,
}


@pytest.fixture(scope="module")
def bilateral_blocks():
    """Clean-Clean blocks over ids 0-4 (side 1) and 5-9 (side 2).

    Includes a singleton block (``solo``: one member, empty second side), a
    block with an empty first side (``ghost``), and an entity (4) whose only
    block yields no comparison.
    """
    blocks = BlockCollection(
        [
            Block("a", [0, 1], [5, 6]),
            Block("b", [0, 2], [6, 7]),
            Block("c", [1, 2, 3], [5, 8]),
            Block("d", [3], [8, 9]),
            Block("e", [0, 1, 2, 3], [5, 6, 7, 9]),
            Block("solo", [4], []),
            Block("ghost", [], [9]),
        ],
        num_entities=10,
    )
    return blocks.sorted_by_cardinality()


@pytest.fixture(scope="module")
def summation_order_blocks():
    """Dirty blocks over ids 0-4 whose EJS neighbourhood means depend on
    the order their weights are summed in: a backend that lists a node's
    neighbours in another order gets other last bits, and with them
    another WNP and RcWNP output."""
    members = [
        (0, 1, 3, 4),
        (1, 4),
        (0, 1, 2, 3, 4),
        (2, 3),
        (1, 2),
        (1, 3, 4),
        (0, 1, 2, 3, 4),
        (0, 1, 3),
    ]
    blocks = BlockCollection(
        [Block(f"k{i}", ids) for i, ids in enumerate(members)], num_entities=5
    )
    return blocks.sorted_by_cardinality()


@pytest.mark.parametrize("scheme", sorted(WEIGHTING_SCHEMES))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_neighborhood_batch_segments_ascend(
    bilateral_blocks, summation_order_blocks, backend, scheme
):
    for blocks in (bilateral_blocks, summation_order_blocks):
        weighting = BACKENDS[backend](blocks, scheme)
        batch = weighting.neighborhood_batch(range(blocks.num_entities))
        for position in range(blocks.num_entities):
            neighbors = batch.neighbors[batch.segment(position)].tolist()
            assert neighbors == sorted(set(neighbors))


@pytest.mark.parametrize("scheme", sorted(WEIGHTING_SCHEMES))
@pytest.mark.parametrize("algorithm", sorted(PRUNING_ALGORITHMS))
class TestPrunedOutputAgreement:
    def test_backends_agree(
        self, bilateral_blocks, summation_order_blocks, scheme, algorithm
    ):
        """The same pairs on every backend, as multisets (WNP and CNP repeat
        pairs), and in the same order on the two node-ordered backends."""
        pruning = PRUNING_ALGORITHMS[algorithm]()
        for blocks in (bilateral_blocks, summation_order_blocks):
            results = {
                name: pruning.prune(cls(blocks, scheme)).pairs
                for name, cls in BACKENDS.items()
            }
            assert sorted(results["original"]) == sorted(results["optimized"])
            assert sorted(results["vectorized"]) == sorted(results["optimized"])
            assert results["vectorized"] == results["optimized"]

    def test_per_edge_shim_agrees_across_backends(
        self, bilateral_blocks, scheme, algorithm
    ):
        pruning = PRUNING_ALGORITHMS[algorithm]()
        reference = sorted(
            pruning.prune(
                OptimizedEdgeWeighting(bilateral_blocks, scheme)
            ).pairs
        )
        for cls in BACKENDS.values():
            shim = pruning.prune_per_edge(cls(bilateral_blocks, scheme))
            assert sorted(shim.pairs) == reference


@pytest.fixture(scope="module")
def parallel_executors(bilateral_blocks):
    """Cache of executors keyed by (weighting name, pool backend).

    Two workers resolve to the thread pool, one to the in-process path; one
    persistent executor per cell reuses its pool across algorithms.
    """
    cache: dict[tuple[str, str], ParallelMetaBlockingExecutor] = {}

    def get(name: str, pool_backend: str) -> ParallelMetaBlockingExecutor:
        key = (name, pool_backend)
        if key not in cache:
            cache[key] = ParallelMetaBlockingExecutor(
                BACKENDS[name](bilateral_blocks, "JS"),
                workers=2 if pool_backend == "threads" else 1,
                chunks=3,
            )
        return cache[key]

    yield get
    for executor in cache.values():
        executor.close()


@pytest.mark.parametrize("pool_backend", PARALLEL_BACKENDS)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("algorithm", sorted(PRUNING_ALGORITHMS))
class TestParallelBackendsAgree:
    """Every weighting backend × algorithm cell, on the thread pool and on
    the in-process chunked path."""

    def test_two_workers_match_serial(
        self, parallel_executors, bilateral_blocks, backend, algorithm, pool_backend
    ):
        serial = sorted(
            PRUNING_ALGORITHMS[algorithm]()
            .prune(BACKENDS[backend](bilateral_blocks, "JS"))
            .pairs
        )
        executor = parallel_executors(backend, pool_backend)
        assert executor.backend == pool_backend
        parallel = executor.prune(PRUNING_ALGORITHMS[algorithm]())
        assert sorted(parallel.pairs) == serial


@pytest.mark.parametrize("scheme", sorted(WEIGHTING_SCHEMES))
def test_weights_agree_on_degenerate_blocks(bilateral_blocks, scheme):
    reference = OptimizedEdgeWeighting(bilateral_blocks, scheme)
    expected = {
        (left, right): weight for left, right, weight in reference.iter_edges()
    }
    for cls in (OriginalEdgeWeighting, VectorizedEdgeWeighting):
        weighting = cls(bilateral_blocks, scheme)
        got = {
            (left, right): weight
            for left, right, weight in weighting.iter_edges()
        }
        assert got.keys() == expected.keys()
        for pair, weight in expected.items():
            assert got[pair] == pytest.approx(weight, rel=1e-12)
