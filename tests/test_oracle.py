"""Differential tests: the package against the plain transcriptions in
``tests/oracle.py``, over random block collections."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockprocessing.entity_index import EntityIndex
from repro.core.block_filtering import BlockFiltering
from repro.datamodel.blocks import Block, BlockCollection
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
