"""Tests for the delta-capable Entity Index (base CSR + append-only deltas)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockprocessing import (
    DeltaEntityIndex,
    EntityIndex,
    latest_epoch,
    load_epoch,
    save_epoch,
    sweep_stale_epochs,
)
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.datamodel.blocks import Block, BlockCollection

#: Every CSR array whose bit-identity the compaction contract guarantees.
CSR_ARRAYS = (
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


def assert_csr_identical(actual: EntityIndex, expected: EntityIndex) -> None:
    assert actual.num_entities == expected.num_entities
    assert actual.is_bilateral == expected.is_bilateral
    for name in CSR_ARRAYS:
        left = getattr(actual, name)
        right = getattr(expected, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


def build_reference(delta: DeltaEntityIndex) -> EntityIndex:
    """The one-shot batch build over the delta's equivalent collection."""
    return EntityIndex(delta.to_block_collection())


def stale_since(index: DeltaEntityIndex, epoch: int) -> set[int]:
    """Entities with a block stamped after ``epoch``."""
    entities, blocks = index.assignment_arrays()
    return set(entities[index.block_stamps[blocks] > epoch].tolist())


def assert_delta_fraction_exact(index: DeltaEntityIndex) -> None:
    """The running assignment total agrees with the full ``|B_i|`` sum."""
    total = int(index.block_counts.sum())
    expected = index.delta_assignments / total if total else 0.0
    assert index.delta_fraction == expected


class TestDeltaBasics:
    def test_empty_index(self):
        index = DeltaEntityIndex()
        assert index.num_entities == 0
        assert index.num_blocks == 0
        assert index.delta_assignments == 0
        assert list(index.placed_entities()) == []

    def test_read_through_matches_fresh_build(self):
        index = DeltaEntityIndex()
        blocks = [index.new_block() for _ in range(3)]
        for memberships in ([0, 1], [1, 2], [0, 2], [0, 1, 2]):
            entity = index.new_entity()
            index.assign(entity, [blocks[b] for b in memberships])
        reference = build_reference(index)
        for entity in range(index.num_entities):
            np.testing.assert_array_equal(
                index.block_slice(entity), reference.block_slice(entity)
            )
            mine = index.cooccurrence_arrays(entity)
            theirs = reference.cooccurrence_arrays(entity)
            np.testing.assert_array_equal(mine[0], theirs[0])
            np.testing.assert_array_equal(mine[1], theirs[1])
        np.testing.assert_array_equal(
            index.block_counts, reference.block_counts
        )
        np.testing.assert_array_equal(
            index.inverse_cardinality_array,
            reference.inverse_cardinality_array,
        )

    def test_rejects_duplicate_membership(self):
        index = DeltaEntityIndex()
        block = index.new_block()
        entity = index.new_entity()
        index.assign(entity, [block])
        other = index.new_entity()

        def state():
            return (
                index.block_size(block),
                index.members(block).tolist(),
                index.cooccurrence_arrays(entity)[0].tolist(),
                index.block_counts.tolist(),
                index.delta_assignments,
                index.epoch,
                index.block_stamps.tolist(),
            )

        before = state()
        with pytest.raises(ValueError, match="already"):
            index.assign(entity, [block])
        # Rejected calls leave nothing behind, even when an earlier id of
        # the same call was valid.
        with pytest.raises(ValueError, match="unknown block id 7"):
            index.assign(other, [block, 7])
        with pytest.raises(ValueError, match="already"):
            index.assign(other, [block, block])
        assert state() == before

    def test_rejects_second_side_on_unilateral(self):
        index = DeltaEntityIndex()
        with pytest.raises(ValueError):
            index.new_entity(second_side=True)

    def test_epoch_advances_on_mutation(self):
        index = DeltaEntityIndex()
        before = index.epoch
        block = index.new_block()
        entity = index.new_entity()
        index.assign(entity, [block])
        assert index.epoch > before

    def test_dirty_tracking(self):
        index = DeltaEntityIndex()
        block = index.new_block()
        index.new_block()
        first = index.new_entity()
        index.assign(first, [block])
        seen = index.epoch
        second = index.new_entity()
        index.assign(second, [block])
        # The shared block is stamped past ``seen``, so both members'
        # state from ``seen`` is stale; the untouched block is not.
        assert index.block_stamps.tolist() == [index.epoch, 0]
        assert stale_since(index, seen) == {first, second}
        # Nothing is stale against the current epoch.
        assert stale_since(index, index.epoch) == set()
        # Excluding a block changes its members' neighborhoods.
        seen = index.epoch
        index.exclude_block(block)
        assert index.block_stamps[block] == index.epoch > seen
        assert stale_since(index, seen) == {first, second}

    def test_exclusion_veils_cooccurrences(self):
        index = DeltaEntityIndex()
        block = index.new_block()
        entities = [index.new_entity() for _ in range(3)]
        for entity in entities:
            index.assign(entity, [block])
        assert index.cooccurrence_arrays(entities[0])[0].size == 2
        index.exclude_block(block)
        assert index.cooccurrence_arrays(entities[0])[0].size == 0
        assert index.comparison_mass() == 0
        # The block still exists and still counts toward sizes.
        assert index.block_size(block) == 3


# -- the compaction bit-identity property -----------------------------------

#: One scripted upsert: which blocks (by position, modulo the number of
#: blocks existing at replay time) the new entity joins, and on which side.
upsert = st.tuples(
    st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=4),
    st.booleans(),
)


def replay(
    script: "list[tuple[list[int], bool]]",
    bilateral: bool,
    compact_points: "set[int]",
) -> DeltaEntityIndex:
    """Drive a DeltaEntityIndex through a scripted upsert interleaving."""
    index = DeltaEntityIndex(is_bilateral=bilateral)
    blocks = [index.new_block() for _ in range(4)]
    for step, (choices, second_side) in enumerate(script):
        entity = index.new_entity(second_side=bilateral and second_side)
        memberships = sorted({blocks[c % len(blocks)] for c in choices})
        if memberships:
            index.assign(entity, memberships)
        if step in compact_points:
            index.compact()
        assert_delta_fraction_exact(index)
    return index


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(upsert, min_size=1, max_size=10),
    bilateral=st.booleans(),
    compact_at=st.sets(
        st.integers(min_value=0, max_value=9), min_size=0, max_size=3
    ),
)
def test_compaction_bit_identical_to_batch_build(
    script, bilateral, compact_at
):
    """Any upsert/compact interleaving compacts to the exact CSR arrays of
    a one-shot ``EntityIndex.from_blocks`` over the equivalent collection."""
    index = replay(script, bilateral, compact_at)
    compacted = index.compact()
    assert_csr_identical(compacted, build_reference(index))
    assert_delta_fraction_exact(index)


@settings(max_examples=25, deadline=None)
@given(
    script=st.lists(upsert, min_size=1, max_size=8),
    bilateral=st.booleans(),
)
def test_read_through_equals_batch_before_compaction(script, bilateral):
    """The delta view answers queries identically to the batch index *without*
    compacting first."""
    index = replay(script, bilateral, compact_points=set())
    reference = build_reference(index)
    assert_delta_fraction_exact(index)
    np.testing.assert_array_equal(index.block_counts, reference.block_counts)
    np.testing.assert_array_equal(
        index.inverse_cardinality_array, reference.inverse_cardinality_array
    )
    # The mask is compared on placed entities only: an unplaced entity's
    # side is unobservable in a block collection (the batch index derives
    # the mask from bilateral membership), while the delta index records it
    # at new_entity time so later assigns land on the right side.
    placed = index.placed_entities()
    np.testing.assert_array_equal(
        index.second_side_mask[placed], reference.second_side_mask[placed]
    )
    for entity in range(index.num_entities):
        np.testing.assert_array_equal(
            index.block_slice(entity), reference.block_slice(entity)
        )
        mine_ids, mine_blocks = index.cooccurrence_arrays(entity)
        ref_ids, ref_blocks = reference.cooccurrence_arrays(entity)
        np.testing.assert_array_equal(mine_ids, ref_ids)
        np.testing.assert_array_equal(mine_blocks, ref_blocks)


# -- single-node kernel vs batch kernel ------------------------------------

#: Up to six blocks (by position, modulo the block count): wide
#: memberships make neighbors share three or more blocks, where the order
#: of ARCS sums shows.
wide_memberships = st.lists(
    st.integers(min_value=0, max_value=11), min_size=0, max_size=6
)

#: What follows an upsert: ``(kind, target, memberships)``. Kind 0
#: compacts, 1 adds a block, 2 excludes block ``target`` (modulo the block
#: count), 3-5 give entity ``target`` (modulo the entity count) more blocks
#: — after a compaction, a neighbor's terms then span base and delta runs;
#: anything larger does nothing.
delta_event = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=15),
    wide_memberships,
)


@settings(max_examples=150, deadline=None)
@given(
    script=st.lists(
        st.tuples(wide_memberships, st.booleans(), delta_event),
        min_size=2,
        max_size=25,
    ),
    bilateral=st.booleans(),
)
def test_single_node_kernel_equals_batch_kernel(script, bilateral):
    """``weighted_neighborhood(e)`` equals segment ``e`` of
    ``neighborhood_batch`` bit for bit over base runs, delta appends,
    compactions and exclusions: both kernels must gather in the same order,
    or ARCS sums drift in their last bits."""
    index = DeltaEntityIndex(is_bilateral=bilateral)
    schemes = ("ARCS", "CBS", "ECBS", "JS", "X2")
    weightings = [
        VectorizedEdgeWeighting._from_shared_index(index, scheme)
        for scheme in schemes
    ]
    blocks = [index.new_block() for _ in range(5)]

    def join(entity: int, choices: "list[int]") -> None:
        held = set(index.block_slice(entity).tolist())
        memberships = sorted({blocks[c % len(blocks)] for c in choices} - held)
        if memberships:
            index.assign(entity, memberships)

    for choices, second_side, (kind, target, extra) in script:
        join(index.new_entity(second_side=bilateral and second_side), choices)
        if kind == 0:
            index.compact()
        elif kind == 1:
            blocks.append(index.new_block())
        elif kind == 2:
            index.exclude_block(blocks[target % len(blocks)])
        elif kind <= 5:
            join(target % index.num_entities, extra)
    entities = np.arange(index.num_entities, dtype=np.int64)
    for scheme, weighting in zip(schemes, weightings):
        batch = weighting.neighborhood_batch(entities)
        for entity in entities.tolist():
            neighbors, counts, weights = weighting.weighted_neighborhood(
                entity
            )
            segment = batch.segment(entity)
            assert neighbors.tolist() == batch.neighbors[segment].tolist()
            assert counts.tolist() == batch.counts[segment].tolist(), scheme
            assert weights.tolist() == batch.weights[segment].tolist(), scheme


# -- epoch persistence and sweeping -----------------------------------------


class TestEpochPersistence:
    def test_save_load_round_trip(self, tmp_path):
        index = DeltaEntityIndex()
        block = index.new_block("movies")
        entity = index.new_entity()
        index.assign(entity, [block])
        other = index.new_entity()
        index.assign(other, [block])
        compacted = index.compact(persist_dir=tmp_path)
        epoch_dir = latest_epoch(tmp_path)
        assert epoch_dir is not None
        loaded, keys = load_epoch(epoch_dir)
        assert_csr_identical(loaded, compacted)
        assert keys == ["movies"]

    def test_latest_epoch_picks_highest(self, tmp_path):
        index = DeltaEntityIndex()
        block = index.new_block()
        for _ in range(2):
            entity = index.new_entity()
            index.assign(entity, [block])
            index.compact(persist_dir=tmp_path)
        epochs = sorted(p.name for p in tmp_path.glob("epoch-*"))
        assert len(epochs) == 2
        assert latest_epoch(tmp_path).name == epochs[-1]

    def test_sweep_removes_orphaned_artifacts(self, tmp_path):
        index = DeltaEntityIndex()
        block = index.new_block()
        entity = index.new_entity()
        index.assign(entity, [block])
        index.compact(persist_dir=tmp_path)
        healthy = latest_epoch(tmp_path)

        # A partial temp dir whose owner pid is dead, and an epoch dir
        # missing its manifest: both are orphans.
        dead_tmp = tmp_path / "epoch-000009.tmp-4194304"
        dead_tmp.mkdir()
        broken = tmp_path / "epoch-000008"
        broken.mkdir()

        would = sweep_stale_epochs(tmp_path, dry_run=True)
        assert {os.path.basename(p) for p in would} == {
            dead_tmp.name,
            broken.name,
        }
        assert dead_tmp.exists() and broken.exists()

        swept = sweep_stale_epochs(tmp_path)
        assert {os.path.basename(p) for p in swept} == {
            dead_tmp.name,
            broken.name,
        }
        assert not dead_tmp.exists() and not broken.exists()
        assert healthy.exists()

    def test_sweep_keeps_live_owner_temp(self, tmp_path):
        live_tmp = tmp_path / f"epoch-000001.tmp-{os.getpid()}"
        live_tmp.mkdir()
        assert sweep_stale_epochs(tmp_path) == []
        assert live_tmp.exists()


def test_from_csr_matches_from_blocks():
    blocks = BlockCollection(
        [
            Block("a", (0, 1, 2)),
            Block("b", (1, 3)),
            Block("c", (0, 3)),
        ],
        num_entities=4,
    )
    reference = EntityIndex.from_blocks(blocks)
    rebuilt = EntityIndex.from_csr(
        num_entities=4,
        is_bilateral=False,
        member_indptr1=reference.member_indptr1,
        members1=reference.members1,
    )
    assert_csr_identical(rebuilt, reference)


class TestApplyBatch:
    """``apply_batch``: N upserts as one mutation, one epoch bump."""

    def _sequential(self, bilateral, flags, keys, assignments):
        index = DeltaEntityIndex(is_bilateral=bilateral)
        for flag in flags:
            index.new_entity(second_side=flag)
        for key in keys:
            index.new_block(key)
        for entity, block_ids in assignments:
            index.assign(entity, block_ids)
        return index

    def _batched(self, bilateral, flags, keys, assignments):
        index = DeltaEntityIndex(is_bilateral=bilateral)
        index.apply_batch(flags, keys, assignments)
        return index

    @pytest.mark.parametrize("bilateral", [False, True])
    def test_matches_sequential_mutations(self, bilateral):
        flags = [False, bilateral, False, bilateral, False]
        keys = ["k0", "k1", "k2"]
        assignments = [(0, [0, 1]), (1, [0, 2]), (2, [1, 2]), (3, [0]),
                       (4, [0, 1, 2])]
        seq = self._sequential(bilateral, flags, keys, assignments)
        bat = self._batched(bilateral, flags, keys, assignments)
        assert_csr_identical(build_reference(bat), build_reference(seq))
        np.testing.assert_array_equal(seq.block_counts, bat.block_counts)
        np.testing.assert_array_equal(
            seq.inverse_cardinality_array, bat.inverse_cardinality_array
        )
        # The same blocks are stamped, the batch with its one epoch, so the
        # same nodes are stale; the flat assignments match too.
        touched = np.flatnonzero(seq.block_stamps)
        np.testing.assert_array_equal(
            np.flatnonzero(bat.block_stamps), touched
        )
        assert set(bat.block_stamps[touched].tolist()) == {bat.epoch}
        assert stale_since(seq, 0) == stale_since(bat, 0)
        for mine, theirs in zip(
            seq.assignment_arrays(), bat.assignment_arrays()
        ):
            np.testing.assert_array_equal(mine, theirs)

    def test_single_epoch_bump(self):
        index = DeltaEntityIndex()
        before = index.epoch
        index.apply_batch(
            [False] * 4, ["a", "b"], [(0, [0]), (1, [0, 1]), (2, [1])]
        )
        assert index.epoch == before + 1

    def test_empty_batch_is_a_noop(self):
        index = DeltaEntityIndex()
        before = index.epoch
        assert index.apply_batch() == ([], [])
        assert index.epoch == before

    def test_returns_new_ids(self):
        index = DeltaEntityIndex()
        index.new_entity()
        index.new_block("base")
        entities, blocks = index.apply_batch(
            [False, False], ["x", "y"], [(1, [0, 1]), (2, [2])]
        )
        assert entities == [1, 2]
        assert blocks == [1, 2]

    def test_assignment_to_existing_entity_dirties_all_its_blocks(self):
        index = DeltaEntityIndex()
        old = index.new_entity()
        first = index.new_block("first")
        index.assign(old, [first])
        seen = index.epoch
        index.apply_batch([False], ["second"], [(old, [1]), (1, [0, 1])])
        assert np.flatnonzero(index.block_stamps > seen).tolist() == [0, 1]
        assert old in stale_since(index, seen)
        # |B_old| changing stamps its old block even when nobody joins it.
        index.new_block("third")
        seen = index.epoch
        index.assign(old, [2])
        assert index.block_stamps.tolist() == [index.epoch] * 3
        assert stale_since(index, seen) == {old, 1}

    def test_validates_before_mutating(self):
        index = DeltaEntityIndex()
        index.new_entity()
        index.new_block("k")
        index.assign(0, [0])
        before = index.epoch
        with pytest.raises(ValueError, match="unknown entity id"):
            index.apply_batch([False], [], [(5, [0])])
        with pytest.raises(ValueError, match="unknown block id"):
            index.apply_batch([False], [], [(1, [7])])
        with pytest.raises(ValueError, match="already a member"):
            index.apply_batch([False], [], [(0, [0])])
        with pytest.raises(ValueError, match="already a member"):
            index.apply_batch([False], ["n"], [(1, [1, 1])])
        with pytest.raises(ValueError, match="bilateral"):
            index.apply_batch([True], [], [])
        assert index.epoch == before
        assert index.num_entities == 1
        assert index.num_blocks == 1

    @pytest.mark.parametrize("bilateral", [False, True])
    def test_multi_gather_matches_per_entity(self, bilateral):
        index = DeltaEntityIndex(is_bilateral=bilateral)
        flags = [False, bilateral, False, bilateral, False, False]
        assignments = [(0, [0, 1]), (1, [0, 2]), (2, [1, 2, 3]), (3, [3]),
                       (4, [0, 1, 2, 3]), (5, [2])]
        index.apply_batch(flags, ["a", "b", "c", "d"], assignments)
        index.exclude_block(3)
        entities = np.arange(index.num_entities, dtype=np.int64)
        ids, blocks, offsets = index.cooccurrence_arrays_multi(entities)
        for position, entity in enumerate(entities.tolist()):
            expected_ids, expected_blocks = index.cooccurrence_arrays(entity)
            segment = slice(offsets[position], offsets[position + 1])
            np.testing.assert_array_equal(ids[segment], expected_ids)
            np.testing.assert_array_equal(blocks[segment], expected_blocks)
