"""Differential tests: the package against the plain transcriptions in
``tests/oracle.py``, over random block collections and upsert streams."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockprocessing.entity_index import EntityIndex
from repro.core.block_filtering import BlockFiltering
from repro.core.execution import ExecutionConfig
from repro.core.pipeline import WEIGHTING_BACKENDS, meta_block
from repro.core.pruning import (
    CardinalityNodePruning,
    ReciprocalCardinalityNodePruning,
    RedefinedCardinalityNodePruning,
)
from repro.datamodel.blocks import Block, BlockCollection
from repro.incremental import IncrementalMetaBlocking
from tests import oracle

ENTITY_INDEX_ARRAYS = (
    "indptr",
    "block_indices",
    "block_counts",
    "member_indptr1",
    "members1",
    "member_indptr2",
    "members2",
    "inverse_cardinality_array",
    "second_side_mask",
)


@st.composite
def collections(draw) -> BlockCollection:
    """Dirty or Clean-Clean collections with repeated, unsorted keys, tied
    cardinalities, unordered members and entities placed in no block."""
    num_entities = draw(st.integers(min_value=2, max_value=14))
    bilateral = draw(st.booleans())
    split = draw(st.integers(min_value=1, max_value=num_entities - 1))
    keys = st.sampled_from(["a", "b", "c", "d", "e"])
    blocks = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        if bilateral:
            side1 = draw(
                st.lists(st.integers(0, split - 1), unique=True, max_size=4)
            )
            side2 = draw(
                st.lists(
                    st.integers(split, num_entities - 1), unique=True, max_size=4
                )
            )
            blocks.append(Block(draw(keys), side1, side2))
        else:
            members = draw(
                st.lists(
                    st.integers(0, num_entities - 1),
                    unique=True,
                    min_size=1,
                    max_size=6,
                )
            )
            blocks.append(Block(draw(keys), members))
    return BlockCollection(blocks, num_entities)


ratios = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


def _as_lists(blocks) -> list:
    return [
        (
            block.key,
            list(block.entities1),
            None if block.entities2 is None else list(block.entities2),
        )
        for block in blocks
    ]


@settings(max_examples=300, deadline=None)
@given(blocks=collections(), ratio=ratios)
def test_block_filtering_equals_algorithm_1(blocks, ratio):
    filtered = BlockFiltering(ratio).process(blocks)
    expected = oracle.block_filtering(_as_lists(blocks), ratio)
    assert _as_lists(filtered) == expected


@settings(max_examples=100, deadline=None)
@given(blocks=collections(), ratio=ratios)
def test_block_list_round_trip_keeps_the_arrays(blocks, ratio):
    collection = BlockFiltering(ratio).process(blocks)
    rebuilt = BlockCollection(list(collection), collection.num_entities)
    assert rebuilt.keys == collection.keys
    assert rebuilt.is_bilateral == collection.is_bilateral
    for name in ("indptr1", "members1", "indptr2", "members2"):
        ours, theirs = getattr(rebuilt, name), getattr(collection, name)
        if theirs is None:
            assert ours is None
        else:
            assert ours.dtype == theirs.dtype == np.int64
            assert np.array_equal(ours, theirs)
    index = EntityIndex(collection)
    from_csr = EntityIndex.from_csr(
        num_entities=collection.num_entities,
        is_bilateral=collection.is_bilateral,
        member_indptr1=collection.indptr1,
        members1=collection.members1,
        member_indptr2=collection.indptr2,
        members2=collection.members2,
    )
    for name in ENTITY_INDEX_ARRAYS:
        ours, theirs = getattr(index, name), getattr(from_csr, name)
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs), name


CNP_ALGORITHMS = {
    False: RedefinedCardinalityNodePruning,
    True: ReciprocalCardinalityNodePruning,
}


def _pruned(blocks, scheme, pruning, backend, execution) -> list:
    result = meta_block(
        blocks,
        scheme,
        pruning,
        block_filtering_ratio=None,
        backend=backend,
        execution=execution,
    )
    return sorted(result.comparisons.pairs)


def _assert_every_execution(blocks, scheme, pruning, backend, expected):
    """``pruning`` retains ``expected`` (sorted, repeats included) run
    serially, on two threads and spilled."""
    assert _pruned(blocks, scheme, pruning, backend, None) == expected
    threads = ExecutionConfig(parallel=2)
    assert _pruned(blocks, scheme, pruning, backend, threads) == expected
    with tempfile.TemporaryDirectory() as spill_dir:
        spilled = ExecutionConfig(spill_dir=spill_dir, memory_budget=64)
        assert _pruned(blocks, scheme, pruning, backend, spilled) == expected


@settings(max_examples=100, deadline=None)
@given(
    blocks=collections(),
    scheme=st.sampled_from(["CBS", "JS"]),
    k=st.one_of(st.none(), st.integers(1, 4)),
    conjunctive=st.booleans(),
)
@pytest.mark.parametrize("backend", sorted(WEIGHTING_BACKENDS))
def test_redefined_cnp_equals_algorithm_4(
    backend, blocks, scheme, k, conjunctive
):
    """ReCNP (disjunctive) and RcCNP (conjunctive) on every backend, run
    serially, on two threads and spilled, retain the oracle's pairs."""
    expected = oracle.redefined_cnp(
        _as_lists(blocks), blocks.num_entities, scheme, k, conjunctive
    )
    pruning = CNP_ALGORITHMS[conjunctive](k)
    _assert_every_execution(blocks, scheme, pruning, backend, expected)


@settings(max_examples=100, deadline=None)
@given(
    blocks=collections(),
    scheme=st.sampled_from(["CBS", "JS"]),
    k=st.one_of(st.none(), st.integers(1, 4)),
)
@pytest.mark.parametrize("backend", sorted(WEIGHTING_BACKENDS))
def test_cnp_equals_each_nodes_top_k(backend, blocks, scheme, k):
    """Original CNP on every backend, run serially, on two threads and
    spilled, retains every node's top-k, a pair once for each end that
    selects it."""
    expected = oracle.cnp(_as_lists(blocks), blocks.num_entities, scheme, k)
    pruning = CardinalityNodePruning(k)
    _assert_every_execution(blocks, scheme, pruning, backend, expected)


@st.composite
def upsert_streams(draw):
    """Dirty or Clean-Clean token streams and a resolver configuration;
    a small vocabulary makes blocks shared, filtered and veiled."""
    clean_clean = draw(st.booleans())
    vocabulary = st.sampled_from([f"t{i}" for i in range(8)])
    profiles = draw(
        st.lists(st.lists(vocabulary, max_size=5), min_size=1, max_size=24)
    )
    sources = [draw(st.integers(0, 1)) if clean_clean else 0 for _ in profiles]
    config = {
        "scheme": draw(st.sampled_from(["CBS", "JS"])),
        "k": draw(st.integers(1, 3)),
        "reciprocal": draw(st.booleans()),
        "filtering_ratio": draw(st.sampled_from([0.3, 0.5, 0.6, 0.8, 1.0])),
        "max_block_size": draw(st.sampled_from([None, 2, 3, 4])),
        "clean_clean": clean_clean,
    }
    return profiles, sources, config


def _rows(candidates) -> list:
    return [(c.entity_id, c.weight, c.common_blocks) for c in candidates]


@settings(max_examples=150, deadline=None)
@given(stream=upsert_streams(), data=st.data())
@pytest.mark.parametrize("path", ["add", "add_batch", "submit"])
def test_streaming_upserts_equal_the_oracle(path, stream, data):
    """Every upsert path returns the oracle's candidates, per profile,
    order and weight bits included: ``add``, ``add_batch`` over a random
    split of the stream, and ``submit`` with a random buffer capacity."""
    profiles, sources, config = stream
    judge = oracle.StreamingResolver(
        config["scheme"],
        config["k"],
        config["filtering_ratio"],
        config["max_block_size"],
        config["reciprocal"],
        config["clean_clean"],
    )
    expected = [
        judge.add(tokens, source) for tokens, source in zip(profiles, sources)
    ]

    batch_size = None
    if path == "submit":
        batch_size = data.draw(st.integers(1, 6), label="batch_size")
    resolver = IncrementalMetaBlocking(
        lambda tokens: tokens, batch_size=batch_size, **config
    )
    actual: list = []
    if path == "add":
        for tokens, source in zip(profiles, sources):
            actual.append(_rows(resolver.add(tokens, source)))
    elif path == "add_batch":
        position = 0
        while position < len(profiles):
            size = data.draw(
                st.integers(1, len(profiles) - position), label="batch"
            )
            stop = position + size
            batch = resolver.add_batch(
                profiles[position:stop], sources[position:stop]
            )
            actual.extend(map(_rows, batch))
            position = stop
    else:
        for tokens, source in zip(profiles, sources):
            flushed = resolver.submit(tokens, source)
            if flushed is not None:
                actual.extend(map(_rows, flushed))
        actual.extend(map(_rows, resolver.flush()))
    assert actual == expected
