"""Streaming meta-blocking over an online entity collection.

Batch meta-blocking (``repro.core``) assumes the full block collection is
available; incremental ER receives profiles one at a time and must surface
each new profile's most likely matches *now*. Historically this module was
a parallel dict-based reimplementation; it is now a thin orchestration
layer over the exact batch machinery, running on a mutable
:class:`~repro.blockprocessing.delta_index.DeltaEntityIndex`:

* the Entity Index is the delta index — an immutable base CSR plus
  append-only deltas, compacted back into a fresh CSR once the delta
  grows past ``compact_ratio`` (epoch-based, optionally persisted as
  epoch snapshots);
* Block Filtering becomes an insertion-time cap: a new profile only joins
  its ``r``-fraction smallest existing blocks (importance = current block
  size, the streaming analogue of Algorithm 1's cardinality ordering);
* Block Purging becomes a size guard: blocks whose size exceeds
  ``max_block_size`` are excluded from co-occurrence queries (they stay in
  the index so their sizes keep informing filtering);
* weighting is the paper's vectorized backend
  (:class:`~repro.core.vectorized.VectorizedEdgeWeighting`) built over the
  delta index via ``_from_shared_index`` — upserts reuse the exact
  weighting schemes and array kernels of the batch path;
* pruning is node-centric on the *new* node at insert time (its top-``k``
  weighted neighbours, CNP-style, optionally validated by the reciprocal
  test), and :meth:`IncrementalMetaBlocking.candidate_pairs` exports the
  full pruned graph with the batch kernels, re-deriving criteria only for
  the *stale* nodes: those with a block the index stamped after their
  criteria were computed (found in one vectorized pass at export, so an
  upsert pays for its own blocks only, never for their members).

Weights use the paper's schemes over the *current* state, so early weights
drift as the collection grows — the standard incremental-ER trade-off. EJS
is rejected: node degrees cannot be maintained under O(degree) updates and
its graph-level statistics are exactly what a stream lacks; so is the
supervised classifier scheme, whose model the write-ahead log cannot hold.
"""

from __future__ import annotations

import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.blockprocessing.delta_index import (
    EPOCH_PREFIX,
    DeltaEntityIndex,
    epoch_number,
    load_epoch,
    load_epoch_state,
)
from repro.blockprocessing.entity_index import EntityIndex
from repro.core.edge_stream import (
    NodeGroup,
    directed_pair_keys,
    neighborhood_mean,
    segment_means,
    select_topk_neighbors,
    topk_per_segment,
)
from repro.core.execution import ExecutionConfig
from repro.core.parallel import parallel_prune, resolve_workers
from repro.core.pruning.node_centric import (
    NODE_CRITERIA_BATCH,
    WeightedNodePruning,
    node_criteria,
)
from repro.core.pruning.base import PruningRun
from repro.core.pruning.redefined import key_retention, threshold_retention
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.core.wal import (
    SNAPSHOT_SUBDIR,
    RecoveryReport,
    WalError,
    WriteAheadLog,
    decode_profile,
    encode_profile,
    read_resolver_manifest,
    read_segment,
    segment_index,
    wal_segments,
    write_resolver_manifest,
)
from repro.core.weights import WeightingScheme, get_scheme
from repro.datamodel.blocks import BlockCollection
from repro.datamodel.profiles import EntityProfile
from repro.datamodel.sinks import ComparisonView, InMemorySink

#: Auto-compaction floor: below this many delta assignments the ratio
#: trigger stays quiet, so a young collection is not compacted every
#: handful of upserts while its delta fraction is necessarily high.
MIN_COMPACT_ASSIGNMENTS = 256

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _require_integer(name: str, value) -> None:
    """Reject a non-integral or bool ``value`` with ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


#: The node-centric pruning exports :meth:`candidate_pairs` supports.
#: Conjunctive (reciprocal) variants pair with their disjunctive bases.
EXPORT_ALGORITHMS = ("CNP", "WNP", "ReCNP", "ReWNP", "RcCNP", "RcWNP")


@dataclass(frozen=True)
class Candidate:
    """One retained comparison for a newly added profile."""

    entity_id: int
    weight: float
    common_blocks: int


class IncrementalMetaBlocking:
    """Online meta-blocking: add profiles, get pruned candidates back.

    Parameters
    ----------
    keys_for:
        Callable mapping a profile to its blocking keys (e.g.
        ``TokenBlocking().keys_for``). Must be redundancy-positive for the
        weights to be meaningful.
    scheme:
        Weighting scheme name or instance; all of ARCS/CBS/ECBS/JS are
        supported (EJS is not — see module docstring).
    k:
        Node-centric cardinality threshold: at most ``k`` candidates are
        returned per insertion (and per node in :meth:`candidate_pairs`
        cardinality exports).
    reciprocal:
        When True, a candidate is kept only if the new profile also ranks
        among the candidate's own top-``k`` neighbours (Reciprocal CNP's
        conjunctive test, evaluated on the post-insertion state).
    filtering_ratio:
        Insertion-time Block Filtering: the profile joins only the
        ``ratio``-fraction smallest of its matching existing blocks (at
        least one). 1.0 disables filtering.
    max_block_size:
        Blocks that grow beyond this size stop producing co-occurrences
        (streaming Block Purging). ``None`` disables the guard.
    clean_clean:
        When True, profiles carry a source tag (see :meth:`add`), blocks
        are bilateral, and only cross-source pairs are candidates
        (Clean-Clean ER).
    execution:
        Optional :class:`~repro.core.execution.ExecutionConfig`; its
        ``compact_ratio``/``compact_dir`` fields seed the two parameters
        below when those are not given explicitly.
    compact_ratio:
        Delta-mass fraction at which the index auto-compacts (in
        ``(0, 1]``); ``None`` never auto-compacts. Auto-compaction also
        waits for :data:`MIN_COMPACT_ASSIGNMENTS` delta assignments.
    compact_dir:
        Directory receiving ``epoch-NNNNNN`` snapshots on every
        compaction; ``None`` keeps epochs in memory only.
    batch_size:
        Coalescing-buffer capacity for :meth:`submit`: buffered profiles
        are committed through one :meth:`add_batch` call once this many
        are pending. ``None`` (or 1) makes :meth:`submit` behave like
        :meth:`add`. Seeded from ``execution.batch_size`` when not given.
    profile_phases:
        When True, :meth:`add`/:meth:`add_batch` accumulate wall-clock
        time per upsert phase into :attr:`phase_seconds`
        (``tokenize``/``index``/``weight``/``criteria``).
    wal_dir:
        Directory of the crash-safety write-ahead log
        (:mod:`repro.core.wal`). When set, every committed upsert batch
        is appended as one CRC-framed record before :meth:`add` /
        :meth:`add_batch` return, compaction snapshots carry the
        durability state needed for replay, and :meth:`recover` rebuilds
        the resolver after a crash. The directory must be fresh — resume
        an existing one through :meth:`recover`, never the constructor.
        Seeded from ``execution.wal_dir`` when not given.
    fsync_policy:
        WAL fsync policy (``"always"``/``"batch"``/``"off"``; see
        :data:`repro.core.wal.FSYNC_POLICIES`). Defaults to ``"batch"``
        when a WAL is configured. Seeded from ``execution.fsync_policy``.
    """

    def __init__(
        self,
        keys_for,
        scheme: "str | WeightingScheme" = "JS",
        k: int = 5,
        reciprocal: bool = False,
        filtering_ratio: float = 0.8,
        max_block_size: int | None = None,
        clean_clean: bool = False,
        execution: "ExecutionConfig | None" = None,
        compact_ratio: float | None = None,
        compact_dir: "str | os.PathLike[str] | None" = None,
        batch_size: int | None = None,
        profile_phases: bool = False,
        wal_dir: "str | os.PathLike[str] | None" = None,
        fsync_policy: "str | None" = None,
    ) -> None:
        _require_integer("k", k)
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not 0.0 < filtering_ratio <= 1.0:
            raise ValueError(
                f"filtering_ratio must be in (0, 1], got {filtering_ratio}"
            )
        if max_block_size is not None:
            _require_integer("max_block_size", max_block_size)
            if max_block_size < 2:
                raise ValueError(
                    f"max_block_size must be >= 2, got {max_block_size}"
                )
        self.keys_for = keys_for
        self.scheme = get_scheme(scheme)
        if not self.scheme.streamable:
            why = (
                "requires node degrees, which are not maintainable incrementally"
                if self.scheme.uses_degrees
                else "cannot be recorded in the write-ahead log"
            )
            raise ValueError(f"{self.scheme.name} {why}; use ARCS, CBS, ECBS or JS")
        if execution is not None:
            if compact_ratio is None:
                compact_ratio = execution.compact_ratio
            if compact_dir is None:
                compact_dir = execution.compact_dir
            if batch_size is None:
                batch_size = execution.batch_size
            if wal_dir is None:
                wal_dir = execution.wal_dir
            if fsync_policy is None:
                fsync_policy = execution.fsync_policy
        if compact_ratio is not None and not 0.0 < compact_ratio <= 1.0:
            raise ValueError(
                f"compact_ratio must be in (0, 1], got {compact_ratio}"
            )
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.k = int(k)
        self.reciprocal = reciprocal
        self.filtering_ratio = filtering_ratio
        self.max_block_size = (
            None if max_block_size is None else int(max_block_size)
        )
        self.clean_clean = clean_clean
        self.execution = execution
        self.compact_ratio = compact_ratio
        self.compact_dir = compact_dir
        self.batch_size = batch_size
        self.profile_phases = profile_phases
        #: Per-phase wall-clock totals, populated when ``profile_phases``.
        self.phase_seconds: dict[str, float] = {
            "tokenize": 0.0,
            "index": 0.0,
            "weight": 0.0,
            "criteria": 0.0,
        }
        #: How many compactions have run (manual and automatic).
        self.compactions = 0
        # The coalescing buffer behind submit()/flush().
        self._buffer: list[tuple[EntityProfile, int]] = []
        # True while an explicit compact() drains the buffer: the flush it
        # performs must not *also* trigger auto-compaction, or one user
        # compaction would be counted (and executed) twice.
        self._compacting = False

        #: The mutable CSR index every query runs against.
        self.index = DeltaEntityIndex(is_bilateral=clean_clean)
        # The batch vectorized backend over the delta index: upserts and
        # exports share the paper's exact weighting kernels. The epoch
        # machinery keeps its memos fresh across mutations.
        self._weighting: VectorizedEdgeWeighting = (
            VectorizedEdgeWeighting._from_shared_index(self.index, self.scheme)
        )
        self._profiles: list[EntityProfile] = []
        self._key_to_block: dict[str, int] = {}
        # Per-node pruning state: entity -> (ascending top-k neighbor ids,
        # neighborhood mean weight), and per entity the index epoch its
        # entry was computed at (-1: no entry). An entry is valid while
        # none of the node's blocks carries a newer stamp
        # (DeltaEntityIndex.block_stamps); stale entries are re-derived
        # lazily (at the next reciprocal probe or export) with the batch
        # kernels.
        self._criteria: dict[int, tuple[np.ndarray, float]] = {}
        self._criteria_epochs = np.full(0, -1, dtype=np.int64)
        # |B| at the time the criteria were valid: schemes whose weights
        # depend on the total block count (ECBS, X2) invalidate everything
        # when a new block appears, not just stamped neighborhoods.
        self._criteria_blocks = 0

        #: The attached write-ahead log, or ``None`` when memory-only.
        self.wal: "WriteAheadLog | None" = None
        self.wal_dir = wal_dir
        self.fsync_policy = fsync_policy
        if wal_dir is not None:
            self._open_fresh_wal()

    def __len__(self) -> int:
        return len(self._profiles)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(scheme={self.scheme.name}, "
            f"profiles={len(self._profiles)}, pending={len(self._buffer)})"
        )

    @property
    def pending(self) -> int:
        """Profiles buffered by :meth:`submit` but not yet committed."""
        return len(self._buffer)

    @property
    def num_blocks(self) -> int:
        """Current number of blocks (every key ever assigned a member)."""
        return self.index.num_blocks

    @property
    def epoch(self) -> int:
        """The index's mutation epoch (bumps per upsert and compaction)."""
        return self.index.epoch

    def profile(self, entity_id: int) -> EntityProfile:
        return self._profiles[entity_id]

    def to_block_collection(self) -> BlockCollection:
        """The current collection as immutable blocks (for batch runs)."""
        return self.index.to_block_collection()

    # -- upserts -------------------------------------------------------------

    def add(self, profile: EntityProfile, source: int = 0) -> list[Candidate]:
        """Insert ``profile`` and return its pruned candidate matches.

        ``source`` distinguishes the two collections under Clean-Clean ER
        (0 or 1); it is ignored otherwise. Candidates are sorted by
        descending weight, deterministic under ties.
        """
        if self.clean_clean and source not in (0, 1):
            raise ValueError(f"source must be 0 or 1, got {source}")
        clock = time.perf_counter if self.profile_phases else None
        if clock:
            tick = clock()
        keys = sorted(set(map(str, self.keys_for(profile))))
        keys = self._filter_keys(keys)
        if clock:
            now = clock()
            self.phase_seconds["tokenize"] += now - tick
            tick = now
        index = self.index
        try:
            entity = index.new_entity(
                second_side=self.clean_clean and source == 1
            )
            self._profiles.append(profile)
            block_ids = []
            for key in keys:
                block_id = self._key_to_block.get(key)
                if block_id is None:
                    block_id = index.new_block(key)
                    self._key_to_block[key] = block_id
                block_ids.append(block_id)
            if block_ids:
                index.assign(entity, block_ids)
                if self.max_block_size is not None:
                    for block_id in block_ids:
                        if (
                            not index.is_excluded(block_id)
                            and index.block_size(block_id) > self.max_block_size
                        ):
                            index.exclude_block(block_id)
            if clock:
                now = clock()
                self.phase_seconds["index"] += now - tick
            candidates = self._query(entity)
            # Logged last: the record order always equals the applied
            # order, and a failed append poisons the log so no later
            # batch can be acknowledged past the divergence.
            self._wal_commit([profile], [source])
        except BaseException:
            self._poison_wal()
            raise
        self._maybe_compact()
        return candidates

    def add_batch(
        self,
        profiles: "list[EntityProfile]",
        sources: "list[int] | int | None" = None,
    ) -> "list[list[Candidate]]":
        """Insert ``profiles`` as one micro-batch; per-profile candidates.

        Semantically equivalent to calling :meth:`add` once per profile in
        order — Block Filtering sees the same intermediate block sizes, the
        size guard excludes blocks at the same points, each profile's
        candidates only reference earlier entities, and every later export
        re-derives the same criteria — but the whole batch costs one
        index mutation (one epoch bump) and a handful of fused multi-node
        kernel calls instead of per-upsert kernel launches. For the
        insertion-count schemes (CBS, JS) the candidate lists are
        bit-identical to the sequential ones; ARCS/ECBS weights are
        evaluated on the post-batch state, the same drift those schemes
        already exhibit across the stream.

        ``sources`` is a per-profile list, a single tag for the whole
        batch, or ``None`` (all 0).
        """
        profiles = list(profiles)
        if sources is None:
            source_list = [0] * len(profiles)
        elif isinstance(sources, int):
            source_list = [sources] * len(profiles)
        else:
            source_list = [int(source) for source in sources]
            if len(source_list) != len(profiles):
                raise ValueError(
                    f"got {len(profiles)} profiles but {len(source_list)} sources"
                )
        if self.clean_clean:
            for source in source_list:
                if source not in (0, 1):
                    raise ValueError(f"source must be 0 or 1, got {source}")
        if not profiles:
            return []
        if len(profiles) == 1:
            # The batch machinery only pays off with company; keep the
            # single-upsert latency path untouched.
            return [self.add(profiles[0], source_list[0])]

        clock = time.perf_counter if self.profile_phases else None
        if clock:
            tick = clock()
        index = self.index
        entity_start = index.num_entities
        block_start = index.num_blocks
        # --- tokenize + Block Filtering, replayed over an overlay --------
        # ``pending_sizes`` carries the size contributions of earlier batch
        # members so member i filters against exactly the block sizes the
        # sequential path would see; ``batch_keys`` makes keys minted by
        # earlier members count as existing (size = pending only).
        pending_sizes: dict[int, int] = {}
        batch_keys: dict[str, int] = {}
        new_block_keys: list[str] = []
        flags: list[bool] = []
        assignments: list[tuple[int, list[int]]] = []
        member_block_ids: list[list[int]] = []
        # (member position, block id) exclusion events, ascending position:
        # the block crossed ``max_block_size`` when that member joined it.
        crossings: list[tuple[int, int]] = []
        crossed: set[int] = set()
        next_block = block_start
        for position, (profile, source) in enumerate(
            zip(profiles, source_list)
        ):
            keys = sorted(set(map(str, self.keys_for(profile))))
            keys = self._filter_keys_overlay(keys, pending_sizes, batch_keys)
            flags.append(self.clean_clean and source == 1)
            block_ids: list[int] = []
            for key in keys:
                block_id = self._key_to_block.get(key)
                if block_id is None:
                    block_id = batch_keys.get(key)
                    if block_id is None:
                        block_id = next_block
                        next_block += 1
                        batch_keys[key] = block_id
                        new_block_keys.append(key)
                block_ids.append(block_id)
                pending_sizes[block_id] = pending_sizes.get(block_id, 0) + 1
            if self.max_block_size is not None:
                for block_id in block_ids:
                    if block_id in crossed or (
                        block_id < block_start and index.is_excluded(block_id)
                    ):
                        continue
                    base = (
                        index.block_size(block_id)
                        if block_id < block_start
                        else 0
                    )
                    if base + pending_sizes[block_id] > self.max_block_size:
                        crossings.append((position, block_id))
                        crossed.add(block_id)
            member_block_ids.append(block_ids)
            if block_ids:
                assignments.append((entity_start + position, block_ids))
        if clock:
            now = clock()
            self.phase_seconds["tokenize"] += now - tick
            tick = now

        # --- one index mutation for the whole batch ----------------------
        # apply_batch validates all-or-nothing: a failure there leaves the
        # index untouched and the log consistent. Past it, any failure
        # before the WAL append commits must poison the log (the applied
        # state has advanced past the durable record stream).
        index.apply_batch(flags, new_block_keys, assignments)
        try:
            self._key_to_block.update(batch_keys)
            self._profiles.extend(profiles)
            if clock:
                now = clock()
                self.phase_seconds["index"] += now - tick

            # --- fused queries, segmented by exclusion state --------------
            # A crossing recorded at member position p takes effect before
            # p's own query (the sequential path excludes right after
            # assigning), so batch members are queried in runs of constant
            # exclusion state.
            results: list[list[Candidate]] = [[] for _ in profiles]
            last_position: dict[int, int] = {}
            for position, block_ids in enumerate(member_block_ids):
                for block_id in block_ids:
                    last_position[block_id] = position
            crossing_after = {block_id: pos for pos, block_id in crossings}
            cursor = 0
            event = 0
            while cursor < len(profiles):
                while event < len(crossings) and crossings[event][0] == cursor:
                    index.exclude_block(crossings[event][1])
                    event += 1
                stop = crossings[event][0] if event < len(crossings) else len(
                    profiles
                )
                self._query_segment(
                    entity_start,
                    cursor,
                    stop,
                    member_block_ids,
                    last_position,
                    crossing_after,
                    results,
                )
                cursor = stop
            # One WAL record per committed batch — this is the group
            # commit: the daemon's whole coalescing convoy becomes a
            # single append + fsync, and the convoy is acknowledged only
            # after this returns.
            self._wal_commit(profiles, source_list)
        except BaseException:
            self._poison_wal()
            raise
        self._maybe_compact()
        return results

    def submit(
        self, profile: EntityProfile, source: int = 0
    ) -> "list[list[Candidate]] | None":
        """Buffer ``profile``; commit the buffer once ``batch_size`` is hit.

        Returns the flushed per-profile candidate lists when this call
        triggered a flush, else ``None`` (the profile is pending — visible
        via :attr:`pending` and ``repr()``; :meth:`flush`,
        :meth:`candidate_pairs` and :meth:`compact` all commit it).
        """
        if self.clean_clean and source not in (0, 1):
            raise ValueError(f"source must be 0 or 1, got {source}")
        self._buffer.append((profile, source))
        if len(self._buffer) >= (self.batch_size or 1):
            return self.flush()
        return None

    def flush(self) -> "list[list[Candidate]]":
        """Commit every buffered profile now (one batch); their candidates."""
        if not self._buffer:
            return []
        buffered, self._buffer = self._buffer, []
        return self.add_batch(
            [profile for profile, _ in buffered],
            [source for _, source in buffered],
        )

    # -- queries -------------------------------------------------------------

    def query(self, entity_id: int, k: int | None = None) -> list[Candidate]:
        """Top-``k`` weighted neighbors of an *existing* entity, read-only.

        Unlike :meth:`add`, nothing is inserted: the entity's current
        neighborhood is scored with the configured scheme and the ``k``
        (default: the resolver's ``k``) heaviest co-occurring entities come
        back as :class:`Candidate`\\ s, sorted by descending weight
        (deterministic under ties). Buffered :meth:`submit` profiles are
        committed first so the answer reflects every accepted upsert.
        """
        if k is None:
            k = self.k
        else:
            _require_integer("k", k)
            if k < 1:
                raise ValueError(f"k must be positive, got {k}")
        self.flush()
        if not 0 <= entity_id < self.index.num_entities:
            raise KeyError(
                f"unknown entity {entity_id} "
                f"(collection holds {self.index.num_entities})"
            )
        neighbors, counts, weights = self._weighting.weighted_neighborhood(
            entity_id
        )
        if neighbors.size == 0:
            return []
        selected = select_topk_neighbors(weights, neighbors, k)
        retained = list(
            map(
                Candidate,
                neighbors[selected].tolist(),
                weights[selected].tolist(),
                counts[selected].tolist(),
            )
        )
        retained.sort(key=lambda c: (-c.weight, c.entity_id))
        return retained

    def stats(self) -> dict:
        """A JSON-serialisable snapshot of the resolver's state."""
        return {
            "profiles": len(self._profiles),
            "blocks": self.index.num_blocks,
            "pending": self.pending,
            "epoch": self.epoch,
            "compactions": self.compactions,
            "delta_assignments": self.index.delta_assignments,
            "delta_fraction": self.index.delta_fraction,
            "scheme": self.scheme.name,
            "k": self.k,
            "reciprocal": self.reciprocal,
            "clean_clean": self.clean_clean,
            "batch_size": self.batch_size,
            "phase_seconds": dict(self.phase_seconds),
            "execution": (
                None if self.execution is None else self.execution.to_dict()
            ),
            "wal": None if self.wal is None else self.wal.stats(),
        }

    # -- full export ---------------------------------------------------------

    def candidate_pairs(self, algorithm: str = "CNP") -> ComparisonView:
        """Node-centric pruning over the *whole* current collection.

        ``WNP`` runs the batch algorithm on the live weighting, with the
        workers ``ExecutionConfig.parallel`` asks for. The others re-derive
        per-node criteria only for stale nodes (no entry yet, or a block
        stamped since the entry), then run the requested batch algorithm's
        retention with those criteria — for ``CNP`` straight from the
        cache, for the two-phase families (``ReCNP``/``ReWNP`` and their
        reciprocal variants) by streaming phase 2 over the distinct-edge
        stream. The result matches the batch algorithm run on
        :meth:`to_block_collection` with the same explicit ``k`` (exactly
        for the integer-statistic schemes CBS/JS; ARCS sums can differ in
        the last float bit when block orders differ).
        """
        if algorithm not in EXPORT_ALGORITHMS:
            known = ", ".join(EXPORT_ALGORITHMS)
            raise ValueError(
                f"unknown export algorithm {algorithm!r}; known: {known}"
            )
        self.flush()
        weighting = self._weighting
        if algorithm == "WNP":
            parallel = None if self.execution is None else self.execution.parallel
            return parallel_prune(
                weighting,
                WeightedNodePruning(),
                workers=1 if parallel is None else parallel,
            )
        self._refresh_criteria()
        sink = InMemorySink()
        try:
            if algorithm == "CNP":
                self._export_cnp(sink)
            elif algorithm in ("ReCNP", "RcCNP"):
                PruningRun(weighting, sink).retain(
                    key_retention(
                        self._criteria_keys(),
                        algorithm == "RcCNP",
                        weighting.num_entities,
                    )
                )
            else:  # ReWNP / RcWNP
                PruningRun(weighting, sink).retain(
                    threshold_retention(
                        self._criteria_thresholds(), algorithm == "RcWNP"
                    )
                )
        except BaseException:
            sink.abort()
            raise
        return sink.finalize(self.index.num_entities)

    def compact(self) -> EntityIndex:
        """Merge the index deltas into a fresh base CSR now.

        Per-node criteria stay valid — compaction changes the storage
        layout, never the collection. Persists an epoch snapshot when
        ``compact_dir`` is configured. Buffered
        :meth:`submit` profiles are committed first *without* tripping
        auto-compaction — the flushed batch folds into this one compaction
        (one call, one :attr:`compactions` increment), where it used to be
        compacted twice when the flush crossed ``compact_ratio``.
        """
        self._compacting = True
        try:
            self.flush()
        finally:
            self._compacting = False
        self.compactions += 1
        state = None if self.wal is None else self._snapshot_state()
        base = self.index.compact(
            persist_dir=self.compact_dir,
            state=state,
            # The snapshot replaces the WAL segments it covers, so under a
            # durable fsync policy it must itself survive a host crash
            # before retire_through may delete them.
            fsync=self.wal is not None and self.fsync_policy != "off",
        )
        if self.wal is not None and state is not None:
            # The snapshot is durable (fsynced files + atomic rename), so
            # every WAL segment it covers can be retired.
            self.wal.retire_through(int(state["wal"]["seq"]))
        return base

    # -- durability (write-ahead log) ----------------------------------------

    def _open_fresh_wal(self) -> None:
        """Constructor path: start a WAL in a directory with no history."""
        assert self.wal_dir is not None
        wal_dir = Path(os.fspath(self.wal_dir))
        if wal_segments(wal_dir) or (wal_dir / SNAPSHOT_SUBDIR).is_dir():
            raise ValueError(
                f"wal_dir {wal_dir} already holds a write-ahead log; "
                "resume it with IncrementalMetaBlocking.recover(wal_dir), "
                "not the constructor"
            )
        self._attach_wal(
            WriteAheadLog(wal_dir, fsync_policy=self.fsync_policy or "batch")
        )

    def _attach_wal(self, wal: WriteAheadLog) -> None:
        """Adopt ``wal`` as the durability log for every future commit."""
        # Compaction snapshots anchor WAL truncation, so with a WAL they
        # always live inside it: a snapshot elsewhere would carry the
        # durability state recover() never looks at, while retire_through
        # still deletes the segments it covers — silent loss of acked data.
        snapshot_dir = wal.directory / SNAPSHOT_SUBDIR
        if self.compact_dir is not None and Path(
            os.fspath(self.compact_dir)
        ).resolve() != snapshot_dir.resolve():
            raise ValueError(
                f"compact_dir {self.compact_dir} conflicts with wal_dir "
                f"{wal.directory}: durable snapshots must live in "
                f"{snapshot_dir} (drop compact_dir, or point it there)"
            )
        self.wal = wal
        self.wal_dir = str(wal.directory)
        self.fsync_policy = wal.fsync_policy
        self.compact_dir = str(snapshot_dir)
        manifest = read_resolver_manifest(wal.directory)
        config = self._wal_config()
        if manifest is None:
            write_resolver_manifest(wal.directory, config)
        else:
            semantic = (
                "scheme",
                "k",
                "reciprocal",
                "filtering_ratio",
                "max_block_size",
                "clean_clean",
            )
            conflicts = {
                name: (manifest.get(name), config[name])
                for name in semantic
                if name in manifest and manifest[name] != config[name]
            }
            if conflicts:
                raise ValueError(
                    f"wal_dir {wal.directory} was written by a resolver "
                    f"with different configuration: {conflicts} "
                    "(manifest value, requested value)"
                )

    def _wal_config(self) -> dict:
        """The manifest payload pinning this resolver's semantics."""
        return {
            "blocking": self._blocking_name(),
            "scheme": self.scheme.name,
            "k": self.k,
            "reciprocal": self.reciprocal,
            "filtering_ratio": self.filtering_ratio,
            "max_block_size": self.max_block_size,
            "clean_clean": self.clean_clean,
            "fsync_policy": self.fsync_policy,
        }

    def _blocking_name(self) -> "str | None":
        """Reverse-lookup of ``keys_for`` in the blocking registry."""
        owner = getattr(self.keys_for, "__self__", None)
        if owner is None:
            return None
        from repro.blocking import BLOCKING_METHODS

        for name, method_cls in BLOCKING_METHODS.items():
            if type(owner) is method_cls:
                return name
        return None

    def _wal_commit(self, profiles, sources) -> None:
        """Append one record for an applied batch; durable when it returns."""
        wal = self.wal
        if wal is None:
            return
        wal.append(
            [encode_profile(profile) for profile in profiles], sources
        )

    def _poison_wal(self) -> None:
        """In-memory state advanced past the log: forbid further commits.

        A no-op when the append itself failed (the writer already marked
        itself broken with the precise reason).
        """
        if self.wal is not None and self.wal.broken is None:
            self.wal.mark_broken(
                "in-memory state advanced past the durable log"
            )

    def _snapshot_state(self) -> dict:
        """Everything a snapshot needs beyond the CSR member arrays."""
        wal = self.wal
        return {
            "version": 1,
            "wal": {"seq": 0 if wal is None else wal.last_seq},
            "profiles": [
                encode_profile(profile) for profile in self._profiles
            ],
            "second_side": self.index.second_side_entities(),
            "excluded": self.index.excluded_blocks(),
            "compactions": self.compactions,
        }

    @classmethod
    def recover(
        cls,
        wal_dir: "str | os.PathLike[str]",
        *,
        keys_for=None,
        blocking: "str | None" = None,
        fsync_policy: "str | None" = None,
        execution: "ExecutionConfig | None" = None,
        **config,
    ) -> "tuple[IncrementalMetaBlocking, RecoveryReport]":
        """Rebuild a resolver from ``wal_dir`` and re-attach its WAL.

        Loads the latest intact snapshot (if any), replays every intact
        WAL record past it through :meth:`add_batch` in commit order, and
        resumes logging into a fresh segment. Returns
        ``(resolver, report)``. Works on a fresh (or empty) directory
        too, so it is the universal entry point for durable serving.

        The ``resolver.json`` manifest in ``wal_dir`` is authoritative
        for the semantic configuration (blocking, scheme, ``k``,
        reciprocal, filtering ratio, size guard, clean/dirty) — keyword
        arguments fill those only when no manifest exists yet. Runtime
        knobs (``fsync_policy``, ``execution``, ``batch_size``, …) always
        come from the call.

        A torn or CRC-corrupted tail — the debris of a crash mid-write —
        is *skipped with a warning on the report*, never raised: those
        records were by construction never acknowledged. A sequence *gap*
        (or duplicate) is different: crash debris only ever truncates the
        chain, so a gap means acknowledged records are missing (e.g.
        segments retired against a snapshot that is no longer readable)
        and replay raises :class:`~repro.core.wal.WalError` rather than
        silently recovering partial state.
        """
        started = time.perf_counter()
        wal_path = Path(os.fspath(wal_dir))
        manifest = read_resolver_manifest(wal_path)
        if manifest is not None:
            for name in (
                "scheme",
                "k",
                "reciprocal",
                "filtering_ratio",
                "max_block_size",
                "clean_clean",
            ):
                if name in manifest:
                    config[name] = manifest[name]
            if blocking is None:
                blocking = manifest.get("blocking")
            if fsync_policy is None:
                fsync_policy = manifest.get("fsync_policy")
        if keys_for is None:
            from repro.blocking import BLOCKING_METHODS

            name = blocking or "token"
            if name not in BLOCKING_METHODS:
                known = ", ".join(sorted(BLOCKING_METHODS))
                raise ValueError(
                    f"unknown blocking method {name!r}; known: {known} "
                    "(or pass keys_for= explicitly)"
                )
            keys_for = BLOCKING_METHODS[name]().keys_for
        if execution is not None and (
            execution.wal_dir is not None or execution.fsync_policy is not None
        ):
            # The constructor must not race us to the WAL directory; the
            # log is attached only after replay.
            execution = replace(execution, wal_dir=None, fsync_policy=None)
        requested_compact = config.get("compact_dir")
        if requested_compact is None and execution is not None:
            requested_compact = execution.compact_dir
        if requested_compact is not None and Path(
            os.fspath(requested_compact)
        ).resolve() != (wal_path / SNAPSHOT_SUBDIR).resolve():
            # _attach_wal would reject this after replay; fail before the
            # (potentially long) replay runs instead.
            raise ValueError(
                f"compact_dir {requested_compact} conflicts with wal_dir "
                f"{wal_path}: durable snapshots must live in "
                f"{wal_path / SNAPSHOT_SUBDIR} (drop compact_dir, or "
                "point it there)"
            )
        resolver = cls(keys_for, execution=execution, **config)

        report = RecoveryReport(wal_dir=str(wal_path))
        warnings: "list[str]" = []

        # --- latest usable snapshot --------------------------------------
        snapshot_seq = 0
        snapshots = wal_path / SNAPSHOT_SUBDIR
        if snapshots.is_dir():
            epoch_dirs = sorted(
                (
                    child
                    for child in snapshots.iterdir()
                    if child.is_dir()
                    and child.name.startswith(EPOCH_PREFIX)
                    and ".tmp-" not in child.name
                ),
                reverse=True,
            )
            for epoch_dir in epoch_dirs:
                try:
                    state = load_epoch_state(epoch_dir)
                    if state is None:
                        warnings.append(
                            f"snapshot {epoch_dir.name} has no durability "
                            "state; ignored"
                        )
                        continue
                    base, keys = load_epoch(epoch_dir)
                    resolver._install_snapshot(
                        base, keys, state, epoch_number(epoch_dir)
                    )
                except (OSError, KeyError, ValueError) as exc:
                    warnings.append(
                        f"unreadable snapshot {epoch_dir.name}: {exc}"
                    )
                    continue
                report.snapshot_epoch = epoch_number(epoch_dir)
                report.snapshot_profiles = len(resolver)
                snapshot_seq = int((state.get("wal") or {}).get("seq", 0))
                break

        # --- replay intact records past the snapshot ----------------------
        expected = snapshot_seq + 1
        segments = wal_segments(wal_path)
        parsed = [(path, *read_segment(path)) for path in segments]
        for position, (path, records, tear) in enumerate(parsed):
            for record in records:
                if record.seq <= snapshot_seq:
                    continue
                if record.seq != expected:
                    # Crash debris only ever truncates the chain; an
                    # out-of-order record means acknowledged data is
                    # missing (gap) or sequence numbers were re-issued
                    # (duplicate). Either way replaying would silently
                    # serve partial or ambiguous state, so refuse.
                    kind = "gap" if record.seq > expected else "duplicate"
                    raise WalError(
                        f"WAL sequence {kind} in {path.name}: expected "
                        f"seq {expected}, found {record.seq}; "
                        "acknowledged records are missing or ambiguous — "
                        "refusing to recover partial state"
                    )
                resolver.add_batch(
                    [decode_profile(data) for data in record.profiles],
                    list(record.sources),
                )
                report.records_replayed += 1
                report.upserts_replayed += len(record.profiles)
                expected += 1
            if tear is not None:
                # A later segment that resumes the chain means this tear
                # was already skipped by a previous recovery. Segments
                # holding no intact record (a recovery that crashed before
                # completing its first append) cannot anchor the chain —
                # scan past them to the first later segment that does.
                resumed_at = next(
                    (
                        (later_path, later_records[0].seq)
                        for later_path, later_records, _ in parsed[
                            position + 1 :
                        ]
                        if later_records
                    ),
                    None,
                )
                if resumed_at is None:
                    # Nothing intact follows: this tear (and any later
                    # record-free debris) was never acknowledged.
                    report.torn_tail = f"{path.name}: {tear}"
                    break
                if resumed_at[1] != expected:
                    raise WalError(
                        f"WAL does not resume after the torn tail in "
                        f"{path.name}: {resumed_at[0].name} continues at "
                        f"seq {resumed_at[1]}, expected {expected}; "
                        "acknowledged records are missing — refusing to "
                        "recover partial state"
                    )
                warnings.append(
                    f"skipping previously-torn tail in {path.name}: {tear}"
                )
        if report.torn_tail is not None:
            warnings.append(
                f"stopped at torn WAL tail ({report.torn_tail}); the "
                "affected batch was never acknowledged"
            )

        # --- resume logging in a fresh segment ----------------------------
        last_segment = segment_index(segments[-1]) if segments else 0
        wal = WriteAheadLog(
            wal_path,
            fsync_policy=fsync_policy or "batch",
            next_seq=expected,
            segment_index=last_segment + 1,
        )
        resolver._attach_wal(wal)
        report.last_seq = expected - 1
        report.warnings = tuple(warnings)
        report.elapsed_seconds = time.perf_counter() - started
        return resolver, report

    def _install_snapshot(
        self,
        base: EntityIndex,
        keys: "list[str] | None",
        state: dict,
        epoch: int,
    ) -> None:
        """Swap in a persisted snapshot as this (empty) resolver's state."""
        if keys is None:
            raise ValueError("snapshot was saved without blocking keys")
        if bool(base.is_bilateral) != self.clean_clean:
            raise ValueError(
                "snapshot bilaterality does not match the resolver's "
                "clean_clean configuration"
            )
        profiles = [
            decode_profile(data) for data in state.get("profiles", ())
        ]
        if len(profiles) != base.num_entities:
            raise ValueError(
                f"snapshot state lists {len(profiles)} profiles for "
                f"{base.num_entities} entities"
            )
        index = DeltaEntityIndex(
            base,
            keys=keys,
            second_side=state.get("second_side"),
            excluded=state.get("excluded"),
        )
        # Keep epoch numbering monotonic across restarts so future
        # snapshots sort after every existing one.
        index.epoch = int(epoch)
        self.index = index
        self._weighting = VectorizedEdgeWeighting._from_shared_index(
            index, self.scheme
        )
        self._profiles = profiles
        self._key_to_block = {key: pos for pos, key in enumerate(keys)}
        # Criteria are a pure function of the collection: with no entries,
        # every placed node is stale, so the next export re-derives them
        # bit-identically to an uninterrupted run.
        self._criteria = {}
        self._criteria_epochs = np.full(0, -1, dtype=np.int64)
        self._criteria_blocks = 0
        self.compactions = int(state.get("compactions", 0))

    # -- internals -----------------------------------------------------------

    def _filter_keys(self, keys: list[str]) -> list[str]:
        """Insertion-time Block Filtering: keep the smallest blocks."""
        if self.filtering_ratio >= 1.0 or not keys:
            return keys
        existing = [key for key in keys if key in self._key_to_block]
        fresh = [key for key in keys if key not in self._key_to_block]
        if not existing:
            return keys
        limit = max(1, int(self.filtering_ratio * len(existing) + 0.5))
        index = self.index
        existing.sort(
            key=lambda key: (index.block_size(self._key_to_block[key]), key)
        )
        # Fresh keys cost nothing (their blocks have size 1) and are the
        # entity's rarest, most important keys — always kept.
        return fresh + existing[:limit]

    def _filter_keys_overlay(
        self,
        keys: "list[str]",
        pending_sizes: "dict[int, int]",
        batch_keys: "dict[str, int]",
    ) -> "list[str]":
        """:meth:`_filter_keys` against the index plus a batch overlay.

        Earlier batch members' joins (``pending_sizes``) count toward block
        sizes and the keys they minted (``batch_keys``) count as existing,
        so every member filters against the same state the sequential path
        would present.
        """
        if self.filtering_ratio >= 1.0 or not keys:
            return keys
        key_to_block = self._key_to_block
        existing = [
            key for key in keys if key in key_to_block or key in batch_keys
        ]
        fresh = [
            key
            for key in keys
            if key not in key_to_block and key not in batch_keys
        ]
        if not existing:
            return keys
        limit = max(1, int(self.filtering_ratio * len(existing) + 0.5))
        index = self.index

        def overlay_size(key: str) -> int:
            block_id = key_to_block.get(key)
            if block_id is None:
                return pending_sizes.get(batch_keys[key], 0)
            return index.block_size(block_id) + pending_sizes.get(block_id, 0)

        existing.sort(key=lambda key: (overlay_size(key), key))
        return fresh + existing[:limit]

    def _query_segment(
        self,
        entity_start: int,
        start: int,
        stop: int,
        member_block_ids: "list[list[int]]",
        last_position: "dict[int, int]",
        crossing_after: "dict[int, int]",
        results: "list[list[Candidate]]",
    ) -> None:
        """Answer batch members ``[start, stop)`` with one fused kernel call.

        Each member's candidates must only reference entities inserted
        before it, so the shared post-batch neighborhoods are masked per
        segment to ``neighbor < member id`` — reproducing the at-insert
        state exactly for the insertion-count schemes. Criteria are cached
        only for members whose neighborhoods no later batch event touches
        (the sequential path would leave everyone else stale too).
        """
        clock = time.perf_counter if self.profile_phases else None
        if clock:
            tick = clock()
        members = np.arange(
            entity_start + start, entity_start + stop, dtype=np.int64
        )
        batch = self._weighting.neighborhood_batch(members)
        owners = np.repeat(
            np.arange(members.size, dtype=np.int64), batch.lengths
        )
        mask = batch.neighbors < members[owners]
        neighbors = batch.neighbors[mask]
        counts = batch.counts[mask]
        weights = batch.weights[mask]
        lengths = np.bincount(owners[mask], minlength=members.size)
        if clock:
            now = clock()
            self.phase_seconds["weight"] += now - tick
            tick = now

        nonempty = np.flatnonzero(lengths)
        offsets = np.zeros(nonempty.size + 1, dtype=np.int64)
        np.cumsum(lengths[nonempty], out=offsets[1:])
        group = NodeGroup(
            entities=members[nonempty],
            offsets=offsets,
            neighbors=neighbors,
            weights=weights,
        )
        means = segment_means(group) if nonempty.size else _EMPTY_IDS
        selected, segments = topk_per_segment(group, self.k)
        picked = np.bincount(segments, minlength=nonempty.size)
        picked_offsets = np.zeros(nonempty.size + 1, dtype=np.int64)
        np.cumsum(picked, out=picked_offsets[1:])
        # topk_per_segment orders within a segment by ascending neighbor —
        # the criteria layout; candidates re-sort by (-weight, id) below.
        topk_neighbors = group.neighbors[selected]
        topk_weights = group.weights[selected]
        topk_counts = counts[selected]
        order = np.lexsort((topk_neighbors, -topk_weights, segments))

        probes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if self.reciprocal and selected.size:
            others = np.unique(topk_neighbors)
            probe = self._weighting.neighborhood_batch(others)
            for position in range(others.size):
                piece = probe.segment(position)
                probes[int(others[position])] = (
                    probe.neighbors[piece],
                    probe.weights[piece],
                )

        segment_of = np.full(members.size, -1, dtype=np.int64)
        segment_of[nonempty] = np.arange(nonempty.size)
        for local in range(members.size):
            position = start + local
            entity = int(members[local])
            block_ids = member_block_ids[position]
            segment = int(segment_of[local])
            if segment < 0:
                topk, mean = _EMPTY_IDS, float("inf")
                retained: list[Candidate] = []
            else:
                topk = topk_neighbors[
                    picked_offsets[segment] : picked_offsets[segment + 1]
                ]
                mean = float(means[segment])
                retained = []
                for slot in order[
                    picked_offsets[segment] : picked_offsets[segment + 1]
                ].tolist():
                    other = int(topk_neighbors[slot])
                    if self.reciprocal and not self._probe_reciprocates(
                        probes, entity, other
                    ):
                        continue
                    retained.append(
                        Candidate(
                            other,
                            float(topk_weights[slot]),
                            int(topk_counts[slot]),
                        )
                    )
            results[position] = retained
            # Cache the criteria only when no later batch member joins any
            # of the entity's blocks and none of them crosses the size cap
            # afterwards: only then is the masked neighborhood the
            # post-batch one. The batch's stamps all predate this entry, so
            # they could not mark a partial one stale.
            if all(
                last_position[block_id] == position
                and crossing_after.get(block_id, -1) <= position
                for block_id in block_ids
            ):
                self._store_criteria(entity, topk, mean)
        if clock:
            self.phase_seconds["criteria"] += clock() - tick

    def _probe_reciprocates(
        self,
        probes: "dict[int, tuple[np.ndarray, np.ndarray]]",
        entity: int,
        other: int,
    ) -> bool:
        """Reciprocal test against a batched probe of ``other``'s node.

        Masks the shared probe to ``neighbor <= entity`` (the state the
        sequential path evaluates at ``entity``'s insertion) and checks
        the top-k there. ``other``'s own cache entry is left alone — it
        stays stale and is re-derived at the next export, which yields the
        same values.
        """
        probe_neighbors, probe_weights = probes[other]
        visible = probe_neighbors <= entity
        neighbors = probe_neighbors[visible]
        if neighbors.size == 0:
            return False
        weights = probe_weights[visible]
        selected = select_topk_neighbors(weights, neighbors, self.k)
        return bool(np.any(neighbors[selected] == entity))

    def _store_criteria(
        self, entity: int, topk: np.ndarray, mean: float
    ) -> None:
        """Cache ``entity``'s criteria as computed at the current epoch."""
        self._criteria[entity] = (topk, mean)
        self._entry_epochs()[entity] = self.index.epoch

    def _entry_epochs(self) -> np.ndarray:
        """The per-entity criteria epochs, grown to cover every entity."""
        epochs = self._criteria_epochs
        needed = self.index.num_entities
        if epochs.size < needed:
            grown = np.full(max(needed, 2 * epochs.size), -1, dtype=np.int64)
            grown[: epochs.size] = epochs
            self._criteria_epochs = epochs = grown
        return epochs

    def _query(self, entity: int) -> list[Candidate]:
        """Score the new node's neighborhood and return its top-k."""
        clock = time.perf_counter if self.profile_phases else None
        if clock:
            tick = clock()
        neighbors, counts, weights = self._weighting.weighted_neighborhood(
            entity
        )
        if clock:
            now = clock()
            self.phase_seconds["weight"] += now - tick
            tick = now
        try:
            return self._query_finish(entity, neighbors, counts, weights)
        finally:
            if clock:
                self.phase_seconds["criteria"] += clock() - tick

    def _query_finish(
        self,
        entity: int,
        neighbors: np.ndarray,
        counts: np.ndarray,
        weights: np.ndarray,
    ) -> list[Candidate]:
        if neighbors.size == 0:
            self._store_criteria(entity, _EMPTY_IDS, float("inf"))
            return []
        selected = select_topk_neighbors(weights, neighbors, self.k)
        chosen = neighbors[selected]
        self._store_criteria(
            entity, np.sort(chosen), neighborhood_mean(weights)
        )
        retained = [
            Candidate(other, weight, common)
            for other, weight, common in zip(
                chosen.tolist(),
                weights[selected].tolist(),
                counts[selected].tolist(),
            )
            if not self.reciprocal or self._reciprocates(entity, other)
        ]
        retained.sort(key=lambda c: (-c.weight, c.entity_id))
        return retained

    def _criterion_ids(self, entity: int) -> np.ndarray:
        """The entity's current top-k neighbor ids (cached unless stale)."""
        cached = self._criteria.get(entity)
        if cached is not None:
            index = self.index
            stamps = index.block_stamps[index.block_slice(entity)]
            computed = self._criteria_epochs[entity]
            if not stamps.size or stamps.max() <= computed:
                return cached[0]
        neighbors, _, weights = self._weighting.weighted_neighborhood(entity)
        if neighbors.size == 0:
            self._store_criteria(entity, _EMPTY_IDS, float("inf"))
            return _EMPTY_IDS
        selected = select_topk_neighbors(weights, neighbors, self.k)
        topk = np.sort(neighbors[selected])
        self._store_criteria(entity, topk, neighborhood_mean(weights))
        return topk

    def _reciprocates(self, entity: int, other: int) -> bool:
        """Does ``entity`` rank in ``other``'s top-k neighborhood?

        Reciprocal CNP's conjunctive test, evaluated on the post-insertion
        state (the batch semantics: both directed edges must survive).
        """
        return bool(np.any(self._criterion_ids(other) == entity))

    def _refresh_criteria(self) -> None:
        """Re-derive pruning criteria for every stale node.

        A placed node is stale when it has no entry, or when one of its
        blocks carries a stamp newer than its entry's epoch; one vectorized
        pass over every (entity, block) assignment finds them all.
        """
        index = self.index
        epochs = self._entry_epochs()
        if (
            self.scheme.uses_total_blocks
            and index.num_blocks != self._criteria_blocks
        ):
            # |B| shifted every weight in the graph; nothing is reusable.
            self._criteria.clear()
            epochs.fill(-1)
        self._criteria_blocks = index.num_blocks
        entities, blocks = index.assignment_arrays()
        flagged = np.zeros(index.num_entities, dtype=bool)
        flagged[entities[index.block_stamps[blocks] > epochs[entities]]] = True
        stale_ids = np.flatnonzero(flagged)
        if not stale_ids.size:
            return
        stale = stale_ids.tolist()
        # Kept where nothing is yielded below: the neighborhood is empty
        # (e.g. all of the node's blocks are excluded) — no retained
        # edges, no mean.
        self._criteria.update(dict.fromkeys(stale, (_EMPTY_IDS, float("inf"))))
        workers = self._kernel_workers(len(stale))
        if workers > 1:
            # Delta-aware parallel re-pruning: the stale nodes are split
            # into contiguous chunks and each thread re-derives criteria
            # with its own weighting clone over the *shared* delta index —
            # no compaction needed first. Per-node results are
            # independent, so the merge is trivially deterministic.
            self._weighting.prime()
            shared_index = self.index
            scheme = self.scheme
            k = self.k

            def run(chunk: "list[int]"):
                clone = type(self._weighting)._from_shared_index(
                    shared_index, scheme
                )
                return list(node_criteria(clone, chunk, k))

            chunks = [
                stale[start : start + NODE_CRITERIA_BATCH]
                for start in range(0, len(stale), NODE_CRITERIA_BATCH)
            ]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(run, chunks):
                    for entity, topk, mean in part:
                        self._criteria[entity] = (topk, mean)
        else:
            for entity, topk, mean in node_criteria(
                self._weighting, stale, self.k
            ):
                self._criteria[entity] = (topk, mean)
        epochs[stale_ids] = index.epoch

    def _kernel_workers(self, nodes: int) -> int:
        """Thread count for a multi-node kernel pass over ``nodes`` nodes.

        The clones read the live delta index zero-copy, so the pass needs
        no compaction first.
        """
        execution = self.execution
        if execution is None or execution.parallel in (None, 1):
            return 1
        workers = resolve_workers(execution.parallel)
        if workers <= 1 or nodes < 2 * NODE_CRITERIA_BATCH:
            return 1
        return min(workers, nodes // NODE_CRITERIA_BATCH)

    def _export_cnp(self, sink: InMemorySink) -> None:
        """CNP straight from the criteria cache — no weight recomputation.

        Emits per node in ascending node order, neighbors ascending: the
        exact pair order of the batch
        :class:`~repro.core.pruning.node_centric.CardinalityNodePruning`.
        """
        for entity in self.index.placed_entities():
            cached = self._criteria.get(entity)
            if cached is None or cached[0].size == 0:
                continue
            neighbors = cached[0]
            entities = np.full(neighbors.size, entity, dtype=np.int64)
            sink.append(
                np.minimum(entities, neighbors),
                np.maximum(entities, neighbors),
            )

    def _criteria_keys(self) -> np.ndarray:
        """Phase-1 CNP keys (sorted directed pairs) from the cache."""
        num_entities = self.index.num_entities
        parts: list[np.ndarray] = []
        for entity, (topk, _) in self._criteria.items():
            if topk.size:
                parts.append(
                    directed_pair_keys(
                        np.full(topk.size, entity, dtype=np.int64),
                        topk,
                        num_entities,
                    )
                )
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def _criteria_thresholds(self) -> np.ndarray:
        """Phase-1 WNP threshold array from the cache (``+inf`` default)."""
        thresholds = np.full(
            self.index.num_entities, np.inf, dtype=np.float64
        )
        for entity, (_, mean) in self._criteria.items():
            thresholds[entity] = mean
        return thresholds

    def _maybe_compact(self) -> None:
        index = self.index
        if (
            self._compacting
            or self.compact_ratio is None
            or index.delta_assignments < MIN_COMPACT_ASSIGNMENTS
            or index.delta_fraction < self.compact_ratio
        ):
            return
        self.compact()
