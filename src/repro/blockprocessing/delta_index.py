"""A mutable Entity Index: immutable base CSR plus append-only deltas.

The batch pipeline builds an :class:`~repro.blockprocessing.entity_index.
EntityIndex` once and never touches it again. The online path (``repro.
incremental``) needs the same index to absorb upserts — new entities, new
blocking keys, new block members — without an O(collection) rebuild per
insert. :class:`DeltaEntityIndex` provides that:

* an immutable **base**: a regular :class:`EntityIndex`, possibly
  ``None`` when starting empty;
* **append-only deltas**: per-block member append lists and per-entity
  block-id sets, plus incrementally maintained statistic arrays
  (``block_counts``, ``inverse_cardinality_array``, sizes, side mask) that
  always reflect base + delta;
* a **read-through view** of the Entity Index API the weighting backends
  consume (``block_slice``/``block_list``/``cooccurring``/
  ``cooccurrence_arrays``/``placed_entities``/counts/masks), so
  ``EdgeWeighting._from_shared_index`` builds a working backend over it;
* **epoch-based compaction**: :meth:`compact` merges the deltas into a
  fresh CSR via :meth:`EntityIndex.from_csr` — bit-identical to
  ``EntityIndex.from_blocks`` on the equivalent collection — and swaps it
  in as the new base, optionally persisting the member arrays to an
  ``epoch-NNNNNN`` directory.

Every mutation bumps :attr:`epoch`; epoch-aware consumers (the weighting
backends) compare it against their cached value and refresh stale memos.

With no delta assignment (after :meth:`~DeltaEntityIndex.compact`, or on
the copy :meth:`~DeltaEntityIndex.merged` returns) the bulk reads
``cooccurrence_arrays_multi`` and ``cooccurrence_lengths`` gather from the
base CSR in one pass, as :class:`EntityIndex` does. A whole-graph pruning
run, serial or on the executor's threads, reads such a merged copy, so it
touches no per-block append list. The live index is read one node at a
time: ``cooccurrence_arrays`` overlays the delta appends on the base run,
and a micro-batch's ``cooccurrence_arrays_multi`` joins those per-node
reads.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro.blockprocessing.entity_index import (
    EntityIndex,
    _csr_cooccurrence_arrays_multi,
    _csr_cooccurrence_lengths,
)
from repro.datamodel.blocks import (
    BlockCollection,
    csr_offsets,
    flatten_runs,
    multi_range_gather,
    run_positions,
)
from repro.datamodel.sinks import pid_alive

EPOCH_PREFIX = "epoch-"
_MANIFEST_NAME = "index.json"
_STATE_NAME = "state.json"
_MANIFEST_VERSION = 1

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _grow(array: np.ndarray, size: int) -> np.ndarray:
    """Return ``array`` with capacity >= ``size`` (doubling growth)."""
    if array.size >= size:
        return array
    capacity = max(size, array.size * 2, 16)
    out = np.zeros(capacity, dtype=array.dtype)
    out[: array.size] = array
    return out


class DeltaEntityIndex:
    """Entity Index over an immutable base CSR plus append-only deltas.

    Parameters
    ----------
    base:
        An immutable :class:`EntityIndex` to layer deltas over, or ``None``
        to start from an empty collection.
    is_bilateral:
        Whether the collection is Clean-Clean (two sources). Ignored when
        ``base`` is given (the base decides). Fixed for the index lifetime.
    keys:
        Optional blocking keys for the base's blocks (needed when the base
        came from ``from_csr`` and carries no block collection). Defaults
        to the base collection's keys, or synthesised ``block-N``
        placeholders.
    second_side:
        Entity ids to flag as second-side, *in addition to* what the
        base's ``second_side_mask`` records. Snapshot restore needs this:
        a bilateral entity placed in no block is invisible to the saved
        member arrays, so its side flag must be reinstated explicitly.
    excluded:
        Block ids to mark excluded (oversized) at construction — the
        snapshot-restore counterpart of :meth:`exclude_block`, applied
        without epoch churn.
    """

    def __init__(
        self,
        base: EntityIndex | None = None,
        *,
        is_bilateral: bool = False,
        keys: list[str] | None = None,
        second_side: "list[int] | None" = None,
        excluded: "list[int] | None" = None,
    ) -> None:
        #: Bumped on every mutation (and on compaction); consumers compare
        #: it against a cached value to detect stale memos.
        self.epoch = 0
        #: No Block objects — consumers work through the CSR/delta arrays.
        self.blocks = None
        if base is not None:
            self.is_bilateral = bool(base.is_bilateral)
            self._num_entities = int(base.num_entities)
            base_blocks = getattr(base, "blocks", None)
            if keys is not None:
                base_keys = [str(key) for key in keys]
            elif base_blocks is not None:
                base_keys = list(base_blocks.keys)
            else:
                base_keys = [f"block-{i}" for i in range(base.num_blocks)]
            if len(base_keys) != base.num_blocks:
                raise ValueError(
                    f"{len(base_keys)} keys for {base.num_blocks} base blocks"
                )
        else:
            self.is_bilateral = bool(is_bilateral)
            self._num_entities = 0
            base_keys = [] if keys is None else [str(key) for key in keys]
            if base_keys:
                raise ValueError("keys given without a base index")
        self._base = base
        self._keys: list[str] = base_keys

        num_blocks = len(self._keys)
        if base is not None:
            sizes1 = np.diff(base.member_indptr1).astype(np.int64, copy=False)
            if self.is_bilateral:
                sizes2 = np.diff(base.member_indptr2).astype(
                    np.int64, copy=False
                )
            else:
                sizes2 = np.zeros(num_blocks, dtype=np.int64)
            inverse = np.array(base.inverse_cardinality_array, dtype=np.float64)
            counts = np.array(base.block_counts, dtype=np.int64)
            second = np.array(base.second_side_mask, dtype=bool)
        else:
            sizes1 = np.zeros(0, dtype=np.int64)
            sizes2 = np.zeros(0, dtype=np.int64)
            inverse = np.zeros(0, dtype=np.float64)
            counts = np.zeros(0, dtype=np.int64)
            second = np.zeros(0, dtype=bool)
        # Grown statistic arrays; the public views slice them to live size.
        self._sizes1 = sizes1
        self._sizes2 = sizes2
        self._inverse = inverse
        self._counts = counts
        self._second = second
        self._excluded = np.zeros(num_blocks, dtype=bool)
        self._has_exclusions = False
        if second_side:
            if not self.is_bilateral:
                raise ValueError("second_side given for a unilateral index")
            self._second[np.asarray(list(second_side), dtype=np.int64)] = True
        if excluded:
            self._excluded[np.asarray(list(excluded), dtype=np.int64)] = True
            self._has_exclusions = True

        # Append-only delta state.
        self._delta_members1: dict[int, list[int]] = {}
        self._delta_members2: dict[int, list[int]] = {}
        self._delta_blocks_of: dict[int, set[int]] = {}
        self._blocks_of_cache: dict[int, np.ndarray] = {}
        self._delta_assignments = 0
        # All assignments, base plus delta; compaction moves them, so it
        # leaves this total alone.
        self._assignments = int(counts.sum())

    def __repr__(self) -> str:
        return (
            f"DeltaEntityIndex(|B|={self.num_blocks}, |E|={self.num_entities},"
            f" epoch={self.epoch}, delta={self._delta_assignments})"
        )

    # -- sizes ---------------------------------------------------------------

    @property
    def num_entities(self) -> int:
        return self._num_entities

    @property
    def num_blocks(self) -> int:
        """``|B|`` — number of blocks, base plus delta."""
        return len(self._keys)

    @property
    def delta_assignments(self) -> int:
        """Membership assignments recorded in the delta since last compact."""
        return self._delta_assignments

    @property
    def delta_fraction(self) -> float:
        """Delta assignments as a fraction of all assignments (0 when empty)."""
        total = self._assignments
        return self._delta_assignments / total if total else 0.0

    def keys(self) -> list[str]:
        """The blocking key of every block, by block position."""
        return list(self._keys)

    def key_of(self, block_id: int) -> str:
        return self._keys[block_id]

    # -- mutation ------------------------------------------------------------

    def new_entity(self, second_side: bool = False) -> int:
        """Register a new entity id (the next consecutive one) and return it."""
        if second_side and not self.is_bilateral:
            raise ValueError("second_side entities require a bilateral index")
        entity = self._num_entities
        self._num_entities += 1
        self._counts = _grow(self._counts, self._num_entities)
        self._second = _grow(self._second, self._num_entities)
        self._second[entity] = second_side
        self.epoch += 1
        return entity

    def new_block(self, key: str | None = None) -> int:
        """Register a new (empty) block and return its position."""
        block_id = len(self._keys)
        self._keys.append(str(key) if key is not None else f"block-{block_id}")
        num_blocks = len(self._keys)
        self._sizes1 = _grow(self._sizes1, num_blocks)
        self._sizes2 = _grow(self._sizes2, num_blocks)
        self._inverse = _grow(self._inverse, num_blocks)
        self._excluded = _grow(self._excluded, num_blocks)
        self.epoch += 1
        return block_id

    def assign(self, entity: int, block_ids: list[int]) -> None:
        """Append ``entity`` to each block (side chosen by the entity's mask).

        A one-assignment :meth:`apply_batch`: validated before anything
        changes, so a rejected call leaves the index untouched.
        """
        self.apply_batch(assignments=[(entity, block_ids)])

    def apply_batch(
        self,
        new_entities: "list[bool] | tuple[bool, ...]" = (),
        new_block_keys: "list[str] | tuple[str, ...]" = (),
        assignments: "list[tuple[int, list[int]]] | tuple" = (),
    ) -> tuple[list[int], list[int]]:
        """Ingest many upserts as **one** mutation.

        ``new_entities`` holds one ``second_side`` flag per new entity,
        ``new_block_keys`` one blocking key per new block, and
        ``assignments`` pairs of ``(entity, block_ids)`` — entity and block
        ids may reference rows created by this very batch. Equivalent to
        the matching sequence of :meth:`new_entity` / :meth:`new_block` /
        :meth:`assign` calls, but the statistic arrays are grown once, the
        per-block inverse cardinalities are recomputed in one vectorized
        pass over the touched blocks, and :attr:`epoch` bumps exactly once
        (an empty batch does not bump).

        Validates the whole batch before mutating anything, so a rejected
        batch leaves the index untouched. Returns the new
        ``(entity_ids, block_ids)`` in registration order.
        """
        flags = list(map(bool, new_entities))
        second_side = any(flags)
        if second_side and not self.is_bilateral:
            raise ValueError("second_side entities require a bilateral index")
        registered = self._num_entities
        total_entities = registered + len(flags)
        total_blocks = len(self._keys) + len(new_block_keys)
        normalized: list[tuple[int, list[int]]] = []
        staged: dict[int, set[int]] = {}
        for entity, block_ids in assignments:
            entity = int(entity)
            if not 0 <= entity < total_entities:
                raise ValueError(f"unknown entity id {entity}")
            seen = staged.setdefault(entity, set())
            ids = list(map(int, block_ids))
            for block_id in ids:
                if not 0 <= block_id < total_blocks:
                    raise ValueError(f"unknown block id {block_id}")
                # Only an entity registered before this batch can already
                # be a member of some block.
                if block_id in seen or (
                    entity < registered
                    and (
                        block_id in self._delta_blocks_of.get(entity, ())
                        or self._in_base_block(entity, block_id)
                    )
                ):
                    raise ValueError(
                        f"entity {entity} is already a member of block "
                        f"{block_id}"
                    )
                seen.add(block_id)
            if ids:
                normalized.append((entity, ids))
        if not flags and not new_block_keys and not normalized:
            return [], []

        entity_start = self._num_entities
        if flags:
            self._num_entities = total_entities
            self._counts = _grow(self._counts, total_entities)
            self._second = _grow(self._second, total_entities)
            # Slots past the registered entities are all False.
            if second_side:
                self._second[entity_start:total_entities] = flags
        block_start = len(self._keys)
        if new_block_keys:
            self._keys += map(str, new_block_keys)
            self._sizes1 = _grow(self._sizes1, total_blocks)
            self._sizes2 = _grow(self._sizes2, total_blocks)
            self._inverse = _grow(self._inverse, total_blocks)
            self._excluded = _grow(self._excluded, total_blocks)

        # The block of every assignment in this batch, in append order.
        touched = np.empty(sum(len(ids) for _, ids in normalized), dtype=np.int64)
        cursor = 0
        for entity, ids in normalized:
            side2 = self.is_bilateral and bool(self._second[entity])
            members = self._delta_members2 if side2 else self._delta_members1
            self._counts[entity] += len(ids)
            self._delta_blocks_of.setdefault(entity, set()).update(ids)
            self._blocks_of_cache.pop(entity, None)
            for block_id in ids:
                members.setdefault(block_id, []).append(entity)
            end = cursor + len(ids)
            blocks = touched[cursor:end]
            blocks[:] = ids
            # ``ids`` holds no repeats, so one fancy increment is exact.
            (self._sizes2 if side2 else self._sizes1)[blocks] += 1
            cursor = end
        self._assignments += touched.size
        self._delta_assignments += touched.size
        if touched.size:
            self._update_inverse_many(touched)
        self.epoch += 1
        return (
            list(range(entity_start, total_entities)),
            list(range(block_start, total_blocks)),
        )

    def exclude_block(self, block_id: int) -> None:
        """Veil a block from co-occurrence queries (streaming Block Purging).

        The block keeps its members, sizes and statistics — and survives
        compaction — but no longer contributes comparison partners.
        """
        if not 0 <= block_id < len(self._keys):
            raise ValueError(f"unknown block id {block_id}")
        if self._excluded[block_id]:
            return
        self._excluded[block_id] = True
        self._has_exclusions = True
        self.epoch += 1

    def is_excluded(self, block_id: int) -> bool:
        return bool(self._excluded[block_id])

    def excluded_blocks(self) -> list[int]:
        """Ascending ids of every excluded block (snapshot state)."""
        return np.flatnonzero(self._excluded[: len(self._keys)]).tolist()

    def second_side_entities(self) -> list[int]:
        """Ascending ids of second-side entities (snapshot state).

        Includes blockless entities, which the persisted member arrays
        cannot reconstruct — the reason snapshots carry this explicitly.
        """
        if not self.is_bilateral:
            return []
        return np.flatnonzero(self._second[: self._num_entities]).tolist()

    # -- read-through Entity Index API ---------------------------------------

    @property
    def block_counts(self) -> np.ndarray:
        """``|B_i|`` per entity (live view; re-read after mutations)."""
        return self._counts[: self._num_entities]

    @property
    def inverse_cardinality_array(self) -> np.ndarray:
        return self._inverse[: len(self._keys)]

    @property
    def inverse_cardinalities(self) -> np.ndarray:
        return self.inverse_cardinality_array

    @property
    def second_side_mask(self) -> np.ndarray:
        return self._second[: self._num_entities]

    def in_second_collection(self, entity: int) -> bool:
        return bool(self._second[entity])

    def block_slice(self, entity: int) -> np.ndarray:
        """``B_i`` — ascending block positions containing ``entity``."""
        delta = self._delta_blocks_of.get(entity)
        base = self._base
        in_base = base is not None and entity < base.num_entities
        if not delta:
            return base.block_slice(entity) if in_base else _EMPTY_I64
        cached = self._blocks_of_cache.get(entity)
        if cached is None:
            if in_base:
                extra = np.fromiter(delta, dtype=np.int64, count=len(delta))
                cached = np.sort(
                    np.concatenate((base.block_slice(entity), extra))
                )
            else:
                cached = np.array(sorted(delta), dtype=np.int64)
            self._blocks_of_cache[entity] = cached
        return cached

    def block_list(self, entity: int) -> np.ndarray:
        return self.block_slice(entity)

    def num_blocks_of(self, entity: int) -> int:
        return int(self._counts[entity])

    def placed_entities(self) -> list[int]:
        return np.flatnonzero(self.block_counts).tolist()

    def block_size(self, block_id: int) -> int:
        """``|b|`` — members on both sides, base plus delta."""
        size = int(self._sizes1[block_id])
        if self.is_bilateral:
            size += int(self._sizes2[block_id])
        return size

    def cardinality(self, block_id: int) -> int:
        """``||b||`` — comparisons the block entails."""
        if self.is_bilateral:
            return int(self._sizes1[block_id]) * int(self._sizes2[block_id])
        size = int(self._sizes1[block_id])
        return size * (size - 1) // 2

    def comparison_mass(self) -> int:
        """``||B||`` — total comparisons across all (non-excluded) blocks."""
        num_blocks = len(self._keys)
        sizes1 = self._sizes1[:num_blocks]
        if self.is_bilateral:
            cards = sizes1 * self._sizes2[:num_blocks]
        else:
            cards = sizes1 * (sizes1 - 1) // 2
        if self._has_exclusions:
            cards = np.where(self._excluded[:num_blocks], 0, cards)
        return int(cards.sum())

    def members(self, block_id: int, second_side: bool = False) -> np.ndarray:
        """Current member ids of one block side (base run + delta appends)."""
        return self._members(block_id, side2=second_side)

    def cooccurring(self, entity: int, block_position: int) -> np.ndarray:
        """See :meth:`EntityIndex.cooccurring` (CSR + delta overlay)."""
        other_side = self.is_bilateral and not self._second[entity]
        return self._members(block_position, side2=other_side)

    def cooccurrence_arrays(self, entity: int) -> tuple[np.ndarray, np.ndarray]:
        """See :meth:`EntityIndex.cooccurrence_arrays`.

        The base contribution comes from one multi-range gather over the
        base member arrays; the delta appends of every block, in ascending
        block position, are joined as Python lists and converted once.
        Excluded blocks are skipped entirely.
        """
        positions = self.block_slice(entity)
        if self._has_exclusions and positions.size:
            positions = positions[~self._excluded[positions]]
        base = self._base
        use_side1 = self.is_bilateral and bool(self._second[entity])
        delta = self._delta_members1 if use_side1 else self._delta_members2
        if not self.is_bilateral:
            delta = self._delta_members1
        ids = blocks = _EMPTY_I64
        if base is not None and positions.size:
            base_positions = positions[positions < base.num_blocks]
            if use_side1 or not self.is_bilateral:
                indptr, members = base.member_indptr1, base.members1
            else:
                indptr, members = base.member_indptr2, base.members2
            ids, blocks = multi_range_gather(indptr, members, base_positions)
        if delta:
            delta_ids: list[int] = []
            delta_blocks: list[int] = []
            for position in positions.tolist():
                appended = delta.get(position)
                if appended:
                    delta_ids += appended
                    delta_blocks += [position] * len(appended)
            if delta_ids:
                extra_ids = np.array(delta_ids, dtype=np.int64)
                extra_blocks = np.array(delta_blocks, dtype=np.int64)
                if ids.size:
                    ids = np.concatenate((ids, extra_ids))
                    blocks = np.concatenate((blocks, extra_blocks))
                else:
                    ids, blocks = extra_ids, extra_blocks
        if not self.is_bilateral and ids.size:
            keep = ids != entity
            ids, blocks = ids[keep], blocks[keep]
        return ids, blocks

    def cooccurrence_lengths(self, entities: np.ndarray) -> np.ndarray:
        """See :meth:`EntityIndex.cooccurrence_lengths` (live block sizes,
        excluded blocks contribute nothing). With no delta assignment the
        lengths come from the base CSR in one pass."""
        entities = np.ascontiguousarray(entities, dtype=np.int64)
        base = self._base
        if base is not None and not self._delta_assignments:
            # Ids registered since the last compaction have no block.
            known = entities < base.num_entities
            lengths = np.zeros(entities.size, dtype=np.int64)
            lengths[known] = _csr_cooccurrence_lengths(
                base, self._base_exclusions()
            )[entities[known]]
            return lengths
        runs = [self.block_slice(entity) for entity in entities.tolist()]
        lengths = np.fromiter(
            (run.size for run in runs), dtype=np.int64, count=entities.size
        )
        if not int(lengths.sum()):
            return np.zeros(entities.size, dtype=np.int64)
        positions = np.concatenate(runs)
        if self.is_bilateral:
            second = np.repeat(self._second[entities], lengths)
            gathered = np.where(
                second, self._sizes1[positions], self._sizes2[positions]
            )
        else:
            gathered = self._sizes1[positions] - 1
        if self._has_exclusions:
            gathered = np.where(self._excluded[positions], 0, gathered)
        # Per-entity run sums via a prefix sum (runs may be empty).
        prefix = np.zeros(gathered.size + 1, dtype=np.int64)
        np.cumsum(gathered, out=prefix[1:])
        ends = np.cumsum(lengths)
        return prefix[ends] - prefix[ends - lengths]

    def cooccurrence_arrays_multi(
        self, entities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segmented :meth:`cooccurrence_arrays` over several entities.

        Returns ``(ids, block_positions, offsets)``: segment ``i`` —
        ``ids[offsets[i]:offsets[i+1]]`` and the aligned block positions —
        is ``cooccurrence_arrays(entities[i])`` element for element, order
        included. With a delta (the nodes of one micro-batch) the segments
        are those per-entity gathers, concatenated; a whole-graph read pays
        that Python loop per node and wants :meth:`merged`. With no delta
        assignment (a compacted or :meth:`merged` index) it is the batch
        gather over the base CSR, with the exclusion mask applied.
        """
        entities = np.ascontiguousarray(entities, dtype=np.int64)
        base = self._base
        if base is not None and not self._delta_assignments:
            # Ids registered since the last compaction get empty segments.
            known = entities < base.num_entities
            ids, blocks, offsets = _csr_cooccurrence_arrays_multi(
                base, entities[known], self._base_exclusions()
            )
            lengths = np.zeros(entities.size, dtype=np.int64)
            lengths[known] = np.diff(offsets)
            return ids, blocks, csr_offsets(lengths)
        runs = [self.cooccurrence_arrays(entity) for entity in entities.tolist()]
        offsets = csr_offsets(
            np.fromiter((ids.size for ids, _ in runs), np.int64, len(runs))
        )
        if not offsets[-1]:
            return _EMPTY_I64, _EMPTY_I64, offsets
        return (
            np.concatenate([ids for ids, _ in runs]),
            np.concatenate([blocks for _, blocks in runs]),
            offsets,
        )

    # -- compaction ----------------------------------------------------------

    def compact(
        self,
        *,
        persist_dir: "str | os.PathLike[str] | None" = None,
        state: "dict | None" = None,
        fsync: bool = False,
    ) -> EntityIndex:
        """Merge the deltas into a fresh CSR base and swap it in.

        The merged member arrays list, per block, the base run followed by
        the delta appends in insertion order — the same member order
        :meth:`to_block_collection` produces — and are rebuilt through
        :meth:`EntityIndex.from_csr`, so the result is bit-identical to
        ``EntityIndex.from_blocks(self.to_block_collection())``. Block ids
        and the exclusion mask are preserved.

        With ``persist_dir`` the member arrays are also written to an
        ``epoch-NNNNNN`` directory (atomic tmp + rename); ``state``
        rides along as the epoch's ``state.json`` sidecar (the WAL
        recovery anchor — see :mod:`repro.core.wal`) and ``fsync``
        makes the snapshot host-crash durable before this call returns.
        """
        fresh = self._merged_base()
        self.epoch += 1
        if persist_dir is not None:
            save_epoch(
                fresh,
                persist_dir,
                self.epoch,
                keys=self._keys,
                state=state,
                fsync=fsync,
            )
        self._base = fresh
        self._delta_members1 = {}
        self._delta_members2 = {}
        self._delta_blocks_of = {}
        self._blocks_of_cache = {}
        self._delta_assignments = 0
        return fresh

    def merged(self) -> "DeltaEntityIndex":
        """A compacted copy: the same collection over one fresh base CSR.

        The copy's base is the CSR :meth:`compact` builds; it carries this
        index's keys, exclusions and side flags (as a restored snapshot
        does) and an empty delta, so its bulk gathers read the base CSR
        alone. This index is left as it was: same epoch, same delta.
        """
        return DeltaEntityIndex(
            self._merged_base(),
            keys=self._keys,
            second_side=self.second_side_entities(),
            excluded=self.excluded_blocks(),
        )

    def to_block_collection(self) -> BlockCollection:
        """Materialise the current state as a plain :class:`BlockCollection`.

        Member order per block is base run followed by delta appends, the
        same order compaction merges — ``EntityIndex(collection)`` equals
        ``compact()`` bit for bit. Excluded blocks are included (exclusion
        is a query-time veil, mirrored by batch Block Purging).
        """
        return BlockCollection.from_csr(
            list(self._keys), self._num_entities, *self._merged_sides()
        )

    # -- internals -----------------------------------------------------------

    def _in_base_block(self, entity: int, block_id: int) -> bool:
        base = self._base
        if base is None or entity >= base.num_entities:
            return False
        if block_id >= base.num_blocks:
            return False
        base_slice = base.block_slice(entity)
        position = int(np.searchsorted(base_slice, block_id))
        return position < base_slice.size and int(base_slice[position]) == block_id

    def _update_inverse_many(self, block_ids: np.ndarray) -> None:
        """Recompute ``1 / ||b||`` (0 when ``||b|| = 0``) for these blocks.

        ``1.0 / int64`` is the IEEE division ``from_csr`` performs, so the
        maintained values stay bit-identical to a fresh build.
        """
        sizes1 = self._sizes1[block_ids]
        if self.is_bilateral:
            cards = sizes1 * self._sizes2[block_ids]
        else:
            cards = sizes1 * (sizes1 - 1) // 2
        inverse = np.zeros(block_ids.size, dtype=np.float64)
        np.divide(1.0, cards, out=inverse, where=cards > 0)
        self._inverse[block_ids] = inverse

    def _members(self, block_id: int, *, side2: bool) -> np.ndarray:
        base = self._base
        delta = self._delta_members2 if side2 else self._delta_members1
        appended = delta.get(block_id)
        if base is not None and block_id < base.num_blocks:
            if side2:
                indptr, members = base.member_indptr2, base.members2
            else:
                indptr, members = base.member_indptr1, base.members1
            run = members[indptr[block_id] : indptr[block_id + 1]]
        else:
            run = np.empty(0, dtype=np.int64)
        if not appended:
            return run
        extra = np.asarray(appended, dtype=np.int64)
        return np.concatenate((run, extra)) if run.size else extra

    def _base_exclusions(self) -> "np.ndarray | None":
        """The exclusion flags of the base's blocks, ``None`` if none is set."""
        if not self._has_exclusions:
            return None
        return self._excluded[: self._base.num_blocks]

    def _merged_base(self) -> EntityIndex:
        """Base plus delta as one fresh CSR index (:meth:`compact`'s)."""
        indptr1, members1, indptr2, members2 = self._merged_sides()
        return EntityIndex.from_csr(
            num_entities=self._num_entities,
            is_bilateral=self.is_bilateral,
            member_indptr1=indptr1,
            members1=members1,
            member_indptr2=indptr2,
            members2=members2,
        )

    def _merged_sides(self) -> tuple:
        """``(indptr1, members1, indptr2, members2)`` of base plus delta;
        the side-2 pair is ``None`` for a unilateral index."""
        indptr1, members1 = self._merge_side(side2=False)
        if not self.is_bilateral:
            return indptr1, members1, None, None
        return (indptr1, members1, *self._merge_side(side2=True))

    def _merge_side(self, *, side2: bool) -> tuple[np.ndarray, np.ndarray]:
        """One side's merged CSR: per block, the base run, then the delta
        appends in insertion order. The base runs move in one scatter and
        the delta lists in another."""
        num_blocks = len(self._keys)
        indptr = csr_offsets((self._sizes2 if side2 else self._sizes1)[:num_blocks])
        merged = np.empty(int(indptr[-1]), dtype=np.int64)
        base_sizes = np.zeros(num_blocks, dtype=np.int64)
        base = self._base
        if base is not None:
            base_indptr = base.member_indptr2 if side2 else base.member_indptr1
            sizes = np.diff(base_indptr)
            base_sizes[: sizes.size] = sizes
            merged[run_positions(indptr[: sizes.size], sizes)] = (
                base.members2 if side2 else base.members1
            )
        delta = self._delta_members2 if side2 else self._delta_members1
        if delta:
            blocks = np.fromiter(delta, dtype=np.int64, count=len(delta))
            delta_indptr, appended = flatten_runs(list(delta.values()))
            merged[
                run_positions(
                    indptr[blocks] + base_sizes[blocks], np.diff(delta_indptr)
                )
            ] = appended
        return indptr, merged


# -- epoch persistence -------------------------------------------------------


def _epoch_dir_name(epoch: int) -> str:
    return f"{EPOCH_PREFIX}{epoch:06d}"


def _fsync_path(path: "str | os.PathLike[str]") -> None:
    """fsync a file or directory by path (O_RDONLY works for both)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_epoch(
    index: EntityIndex,
    directory: "str | os.PathLike[str]",
    epoch: int,
    keys: list[str] | None = None,
    state: "dict | None" = None,
    fsync: bool = False,
) -> Path:
    """Persist a compacted base's member arrays to ``directory/epoch-NNNNNN``.

    Writes into a pid-tagged temp directory first, then renames into place,
    so readers only ever see complete epochs; a crash mid-write leaves an
    ``epoch-NNNNNN.tmp-{pid}`` orphan that ``sweep_stale_epochs`` removes.
    ``state`` (when given) is written as a ``state.json`` sidecar inside
    the same atomic rename — WAL recovery stores the resolver-level state
    (profiles, exclusions, covered WAL seq) there, so a snapshot either
    carries all of it or does not exist.

    With ``fsync=True`` every written file and both directories are
    fsynced around the rename, so the snapshot is durable against a host
    crash when this returns — required before WAL truncation retires the
    segments the snapshot covers (a rename alone only orders the epoch
    against other renames, not against power loss).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / _epoch_dir_name(epoch)
    tmp = directory / f"{_epoch_dir_name(epoch)}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        np.save(tmp / "member_indptr1.npy", index.member_indptr1)
        np.save(tmp / "members1.npy", index.members1)
        if index.is_bilateral:
            np.save(tmp / "member_indptr2.npy", index.member_indptr2)
            np.save(tmp / "members2.npy", index.members2)
        manifest = {
            "version": _MANIFEST_VERSION,
            "epoch": int(epoch),
            "pid": os.getpid(),
            "num_entities": int(index.num_entities),
            "is_bilateral": bool(index.is_bilateral),
            "keys": None if keys is None else [str(key) for key in keys],
        }
        (tmp / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
        if state is not None:
            (tmp / _STATE_NAME).write_text(
                json.dumps(state, separators=(",", ":"))
            )
        if fsync:
            for child in tmp.iterdir():
                _fsync_path(child)
            _fsync_path(tmp)
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
        if fsync:
            _fsync_path(directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final


def load_epoch(
    epoch_dir: "str | os.PathLike[str]",
) -> tuple[EntityIndex, list[str] | None]:
    """Rebuild a compacted base from a persisted epoch directory.

    Returns ``(index, keys)``; ``keys`` is ``None`` when the epoch was
    saved without them. The entity → blocks CSR and statistics are
    re-derived, so the result is bit-identical to the index that was saved.
    """
    epoch_dir = Path(epoch_dir)
    manifest = json.loads((epoch_dir / _MANIFEST_NAME).read_text())
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ValueError(
            f"unsupported epoch manifest version {manifest.get('version')!r}"
        )
    is_bilateral = bool(manifest["is_bilateral"])
    kwargs = {
        "member_indptr1": np.load(epoch_dir / "member_indptr1.npy"),
        "members1": np.load(epoch_dir / "members1.npy"),
    }
    if is_bilateral:
        kwargs["member_indptr2"] = np.load(epoch_dir / "member_indptr2.npy")
        kwargs["members2"] = np.load(epoch_dir / "members2.npy")
    index = EntityIndex.from_csr(
        num_entities=int(manifest["num_entities"]),
        is_bilateral=is_bilateral,
        **kwargs,
    )
    keys = manifest.get("keys")
    return index, keys


def load_epoch_state(epoch_dir: "str | os.PathLike[str]") -> "dict | None":
    """The epoch's ``state.json`` sidecar, or ``None`` when it has none.

    Epochs saved without ``state`` (plain ``--compact-dir`` snapshots)
    have no sidecar; WAL recovery skips them, since without the covered
    sequence number a snapshot cannot anchor replay.
    """
    path = Path(epoch_dir) / _STATE_NAME
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def epoch_number(epoch_dir: "str | os.PathLike[str]") -> int:
    """The epoch counter encoded in an ``epoch-NNNNNN`` directory name."""
    return int(Path(epoch_dir).name[len(EPOCH_PREFIX) :])


def latest_epoch(directory: "str | os.PathLike[str]") -> Path | None:
    """The newest complete epoch directory under ``directory``, or ``None``."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(
        child
        for child in directory.iterdir()
        if child.is_dir()
        and child.name.startswith(EPOCH_PREFIX)
        and ".tmp-" not in child.name
        and (child / _MANIFEST_NAME).is_file()
    )
    return candidates[-1] if candidates else None


def sweep_stale_epochs(
    directory: "str | os.PathLike[str]", dry_run: bool = False
) -> list[Path]:
    """Remove orphaned compaction artifacts under a compaction directory.

    Sweeps ``epoch-NNNNNN.tmp-{pid}`` staging directories whose owning
    process is gone (a crash mid-:func:`save_epoch`) and ``epoch-*``
    directories missing their manifest (a torn write predating the atomic
    rename, or manual tampering). Complete epochs and live staging dirs
    are left alone. Returns the swept (or, under ``dry_run``, sweepable)
    paths.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    swept: list[Path] = []
    for child in sorted(directory.iterdir()):
        if not child.is_dir() or not child.name.startswith(EPOCH_PREFIX):
            continue
        if ".tmp-" in child.name:
            tail = child.name.rsplit(".tmp-", 1)[1]
            try:
                owner = int(tail)
            except ValueError:
                owner = -1
            if pid_alive(owner):
                continue
        elif (child / _MANIFEST_NAME).is_file():
            continue
        swept.append(child)
        if not dry_run:
            shutil.rmtree(child, ignore_errors=True)
    return swept
