"""Columnar edge streaming: the :class:`EdgeBatch` struct-of-arrays type.

The blocking graph of a voluminous collection is consumed as a *stream* of
edges. Streaming one Python tuple per edge (the historical ``iter_edges``
contract) re-introduces at the pruning layer the per-comparison interpreter
overhead that Algorithm 3 removed from the weighting layer. This module
defines the bulk representation that the whole weighting → pruning →
parallel-executor stack exchanges instead:

* :class:`EdgeBatch` — a chunk of distinct edges in struct-of-arrays form
  (``sources``/``targets``/``weights`` numpy arrays, canonicalised so that
  ``sources < targets`` element-wise);
* :class:`NeighborhoodBatch` / :class:`NodeGroup` — a chunk of node
  neighbourhoods in concatenated segment form, and :class:`FusedChunk`,
  which pairs one with its slice of the distinct-edge stream;
* exact top-k selection helpers (:func:`topk_per_segment`,
  :func:`select_topk_neighbors`, :func:`select_topk_edges`,
  :class:`TopKEdgeBuffer`) that reproduce
  :class:`~repro.utils.topk.TopKHeap`'s deterministic tie-breaking with
  numpy sorts and ``np.argpartition`` instead of a Python heap;
* :func:`neighborhood_mean` — the one canonical mean-weight reduction shared
  by every path (serial, batched, parallel), so weight thresholds are
  bit-identical no matter how the edge stream is partitioned, and never
  exceed the neighbourhood's largest weight;
* pair-key membership helpers (:func:`directed_pair_keys`,
  :func:`keys_contain`) used by the batched phase 2 of the redefined /
  reciprocal CNP.

Every helper is pure and deterministic: the batched pruning algorithms built
on top retain *exactly* the same comparison sets as the per-edge shims (the
test suite asserts this for every algorithm × scheme × backend).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Default number of edges per :class:`EdgeBatch` chunk.
DEFAULT_CHUNK_SIZE = 32768

Edge = tuple[int, int, float]


@dataclass
class EdgeBatch:
    """A chunk of distinct blocking-graph edges in struct-of-arrays form.

    ``sources[i] < targets[i]`` holds element-wise (canonical edge ids), and
    every distinct edge appears in exactly one batch of a stream.
    """

    sources: np.ndarray  # int64
    targets: np.ndarray  # int64
    weights: np.ndarray  # float64

    def __len__(self) -> int:
        return int(self.sources.size)

    def __post_init__(self) -> None:
        if not (self.sources.size == self.targets.size == self.weights.size):
            raise ValueError(
                "sources, targets and weights must have equal length"
            )

    @classmethod
    def empty(cls) -> "EdgeBatch":
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "EdgeBatch":
        """Build a batch from ``(smaller, larger, weight)`` tuples."""
        rows = list(edges)
        if not rows:
            return cls.empty()
        sources = np.fromiter((e[0] for e in rows), dtype=np.int64, count=len(rows))
        targets = np.fromiter((e[1] for e in rows), dtype=np.int64, count=len(rows))
        weights = np.fromiter((e[2] for e in rows), dtype=np.float64, count=len(rows))
        return cls(sources, targets, weights)

    @classmethod
    def concatenate(cls, batches: Sequence["EdgeBatch"]) -> "EdgeBatch":
        if not batches:
            return cls.empty()
        return cls(
            np.concatenate([b.sources for b in batches]),
            np.concatenate([b.targets for b in batches]),
            np.concatenate([b.weights for b in batches]),
        )

    def iter_edges(self) -> Iterator[Edge]:
        """Per-edge view of the batch (the compatibility direction)."""
        return zip(
            self.sources.tolist(), self.targets.tolist(), self.weights.tolist()
        )

    def pairs(self) -> list[tuple[int, int]]:
        """The batch's ``(source, target)`` pairs as Python tuples."""
        return list(zip(self.sources.tolist(), self.targets.tolist()))


#: Single-segment start used by :func:`neighborhood_mean`'s reduction.
_SEGMENT_ZERO = np.zeros(1, dtype=np.int64)


def neighborhood_mean(weights: np.ndarray) -> float:
    """Canonical mean of a node neighbourhood's weights.

    Every path that derives a local weight threshold — serial batched,
    per-edge shim, parallel chunk — calls this one reduction, so thresholds
    are bit-identical regardless of how the surrounding stream is chunked.
    The sum runs through ``np.add.reduceat``, the same C reduction
    :func:`segment_means` applies per segment. That reduction is not a
    left-to-right sum (numpy sums in blocks), but it is the same reduction
    over the same operands in the same order — every backend lists a
    neighbourhood in ascending id order — so the grouped and per-node forms
    agree to the last bit.

    The mean is clamped to the largest weight: the float sum of ``n`` equal
    weights divided by ``n`` can round one ulp above the common weight
    (``3 * 0.2 / 3 > 0.2``), which would make ``weight >= mean`` drop every
    edge of a node whose weights are all equal.
    """
    size = int(weights.size)
    if size == 0:
        return 0.0
    mean = float(np.add.reduceat(weights, _SEGMENT_ZERO)[0]) / size
    return min(mean, float(weights.max()))


@dataclass
class NodeGroup:
    """A chunk of node neighbourhoods in concatenated segment form.

    ``neighbors[offsets[i]:offsets[i+1]]`` (and the matching ``weights``
    slice) is the neighbourhood of ``entities[i]``; empty neighbourhoods are
    never included, so every segment is non-empty. Neighbours ascend within
    each segment.
    """

    entities: np.ndarray  # int64 [num_segments]
    offsets: np.ndarray  # int64 [num_segments + 1]
    neighbors: np.ndarray  # int64 [total]
    weights: np.ndarray  # float64 [total]

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


@dataclass
class NeighborhoodBatch:
    """Many nodes' weighted neighbourhoods in concatenated segment form.

    The result of :meth:`~repro.core.edge_weighting.EdgeWeighting.neighborhood_batch`:
    ``neighbors[offsets[i]:offsets[i+1]]`` (and the aligned ``counts`` /
    ``weights`` slices) is the neighbourhood of ``entities[i]``, neighbours
    ascending, with the weights of the backend's ``neighborhood()``, bit for
    bit. Unlike :class:`NodeGroup`, empty segments are *kept* (their offset
    run is empty), so batch callers can index results positionally by
    input entity.
    """

    entities: np.ndarray  # int64 [num_segments]
    offsets: np.ndarray  # int64 [num_segments + 1]
    neighbors: np.ndarray  # int64 [total]
    #: Shared-block counts ``|B_ij|``; ``None`` when the backend's
    #: ``neighborhood()`` does not report them (the per-edge fallback).
    counts: "np.ndarray | None"  # int64 [total]
    weights: np.ndarray  # float64 [total]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def segment(self, position: int) -> slice:
        """The concatenated-array slice of ``entities[position]``."""
        return slice(
            int(self.offsets[position]), int(self.offsets[position + 1])
        )

    def node_group(self) -> NodeGroup:
        """The non-empty segments as a :class:`NodeGroup` (its invariant).

        The concatenated arrays are shared, not copied — empty segments
        contribute no elements.
        """
        lengths = self.lengths
        mask = lengths > 0
        if bool(mask.all()):
            return NodeGroup(
                self.entities, self.offsets, self.neighbors, self.weights
            )
        offsets = np.zeros(int(mask.sum()) + 1, dtype=np.int64)
        np.cumsum(lengths[mask], out=offsets[1:])
        return NodeGroup(
            self.entities[mask], offsets, self.neighbors, self.weights
        )


@dataclass
class FusedChunk:
    """One chunk of node neighbourhoods serving both pruning phases.

    ``group`` holds the full neighbourhoods (the node-centric criterion's
    input); ``emitted`` is the chunk's slice of the canonical distinct-edge
    stream — each edge once, from the endpoint that emits it — carved out of
    the same arrays on first use, so a step that reads only ``group`` never
    pays for it; ``emitted_offsets[i]:emitted_offsets[i+1]`` is the emitted
    run of ``group.entities[i]`` (possibly empty).
    """

    group: NodeGroup
    #: The graph's second-side mask when it is bilateral (an edge is
    #: emitted by its first-side endpoint), ``None`` when it is unilateral
    #: (an edge is emitted by its lower id).
    second_side: "np.ndarray | None" = None

    @cached_property
    def _split(self) -> "tuple[EdgeBatch, np.ndarray]":
        """Every weighting scheme is element-wise, so masking after
        weighting gives the same bits as filtering the neighbourhood before
        weighting."""
        group = self.group
        owners = np.repeat(group.entities, group.counts)
        if self.second_side is not None:
            emitted = ~self.second_side[owners]
        else:
            emitted = group.neighbors > owners
        owners = owners[emitted]
        neighbors = group.neighbors[emitted]
        emitted_offsets = np.zeros(group.entities.size + 1, dtype=np.int64)
        np.cumsum(
            np.add.reduceat(emitted.astype(np.int64), group.offsets[:-1]),
            out=emitted_offsets[1:],
        )
        batch = EdgeBatch(
            np.minimum(owners, neighbors),
            np.maximum(owners, neighbors),
            group.weights[emitted],
        )
        return batch, emitted_offsets

    @property
    def emitted(self) -> EdgeBatch:
        return self._split[0]

    @property
    def emitted_offsets(self) -> np.ndarray:  # int64 [num_segments + 1]
        return self._split[1]

    def emitted_node_sums(self) -> tuple[np.ndarray, int]:
        """Per-emitting-node weight sums (node order) and the edge count.

        One ``np.add.reduceat`` over the non-empty emitted runs (ascending
        neighbour ids), empty runs skipped — the per-node partial sums WEP's
        global mean is reduced from, so the mean never depends on chunk
        boundaries or on the backend.
        """
        weights = self.emitted.weights
        if weights.size == 0:
            return np.empty(0, dtype=np.float64), 0
        starts = self.emitted_offsets[:-1]
        nonzero = np.diff(self.emitted_offsets) > 0
        return np.add.reduceat(weights, starts[nonzero]), int(weights.size)


def segment_means(group: NodeGroup) -> np.ndarray:
    """Per-segment mean weight, one per group entity.

    Uses the same ``np.add.reduceat`` reduction, over the same ascending
    operands, and the same clamp to the segment's largest weight as
    :func:`neighborhood_mean`, so the grouped means are bit-identical to
    calling :func:`neighborhood_mean` on each segment.
    """
    starts = group.offsets[:-1]
    means = np.add.reduceat(group.weights, starts) / group.counts
    return np.minimum(means, np.maximum.reduceat(group.weights, starts))


#: The sign bit of an IEEE-754 double, read as int64.
_SIGN_BIT = np.int64(-(2**63))


def topk_per_segment(group: NodeGroup, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k entries of every segment, as ``(selected, segments)`` arrays.

    ``selected`` indexes into the group's concatenated arrays, ordered by
    (segment, ascending neighbor id); ``segments`` gives each selected
    entry's segment position. Ranking reproduces
    :class:`~repro.utils.topk.TopKHeap` exactly: by weight, ties won by the
    larger neighbor id, which is the later position because neighbours
    ascend within each segment (the :class:`NodeGroup` invariant). A NaN
    weight ranks above ``+inf`` whatever its sign, and ``-0.0`` ties
    ``+0.0``, as numpy's sorts rank them.

    Only entries that can be selected are ranked exactly. Each weight's
    *prefix* is the top 32 bits of the order-preserving uint64 image of
    its float64 bits, after ``-0.0`` is folded into ``+0.0`` and every NaN
    into one positive NaN; it never decreases as the weight grows. One
    ``np.sort`` of ``segment << 32 | prefix`` keys gives each segment's
    *bound*, its k-th largest prefix (its smallest when it has at most
    ``k`` entries). The entries at or above their bound hold the exact
    top-k, usually k plus the boundary ties, and only those pay for the
    stable sorts.
    """
    counts = group.counts
    total = int(group.weights.size)
    if k <= 0 or total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    segments = np.repeat(
        np.arange(counts.size, dtype=np.int64), counts
    )
    if k >= int(counts.max()):
        return np.arange(total, dtype=np.int64), segments
    # float32 and integer weights widen exactly; + 0.0 folds -0.0 into
    # +0.0. A negative NaN (x86's inf - inf) would image below -inf.
    weights = np.add(group.weights, 0.0, dtype=np.float64)
    weights[np.isnan(weights)] = np.nan
    bits = weights.view(np.int64)
    # Flip the sign bit of a non-negative weight, every bit of a negative.
    image = (bits ^ ((bits >> 63) | _SIGN_BIT)).view(np.uint64)
    keys = (segments.view(np.uint64) << 32) | (image >> 32)
    bounds = np.sort(keys)[
        np.maximum(group.offsets[1:] - k, group.offsets[:-1])
    ]
    candidates = (keys >= np.repeat(bounds, counts)).nonzero()[0]
    # Stable sort by (segment, weight, position): within a segment the
    # last k candidates are the top-k, boundary ties resolved toward larger
    # ids — the heap's descending (score, item) rule.
    by_weight = candidates[
        np.argsort(group.weights[candidates], kind="stable")
    ]
    ranked = by_weight[np.argsort(segments[by_weight], kind="stable")]
    owners = segments[ranked]
    last = np.ones(ranked.size, dtype=bool)
    np.not_equal(owners[k:], owners[:-k], out=last[:-k])
    selected = np.sort(ranked[last])
    return selected, segments[selected]


def select_topk_neighbors(
    weights: np.ndarray, neighbors: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the ``k`` best ``(weight, neighbor)`` entries.

    Reproduces :class:`~repro.utils.topk.TopKHeap` exactly: entries are
    ranked by weight, ties broken by the larger neighbor id. One
    ``argpartition`` finds the k-th largest weight; every entry at least
    that heavy is kept, and only when boundary ties make that more than
    ``k`` are the kept entries ranked by ``(weight, neighbor)`` to drop the
    lightest, smallest-id ones. Returned indices are unordered (callers
    sort the selected ids as needed).
    """
    count = int(weights.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= count:
        return np.arange(count, dtype=np.int64)
    kth = weights[np.argpartition(weights, count - k)[count - k]]
    kept = (weights >= kth).nonzero()[0]
    if kept.size == k:
        return kept
    ranked = np.lexsort((neighbors[kept], weights[kept]))
    return kept[ranked[kept.size - k :]]


def select_topk_edges(
    weights: np.ndarray, sources: np.ndarray, targets: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the ``k`` best ``(weight, (source, target))`` edges.

    Same deterministic ranking as CEP's global :class:`TopKHeap`: by weight,
    ties broken by the lexicographically larger ``(source, target)`` pair.
    """
    count = int(weights.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= count:
        return np.arange(count, dtype=np.int64)
    cut = np.argpartition(weights, count - k)[count - k :]
    cut_weights = weights[cut]
    boundary = float(cut_weights.min())
    if np.count_nonzero(weights == boundary) == np.count_nonzero(
        cut_weights == boundary
    ):
        return cut
    strictly = np.flatnonzero(weights > boundary)
    ties = np.flatnonzero(weights == boundary)
    need = k - strictly.size
    if need < ties.size:
        order = np.lexsort((targets[ties], sources[ties]))
        ties = ties[order[ties.size - need :]]
    return np.concatenate((strictly, ties))


class TopKEdgeBuffer:
    """Running top-k over a stream of :class:`EdgeBatch` chunks.

    Appends batches and keeps at most ``2k + chunk`` candidates buffered;
    whenever the buffer overflows it is reduced back to the exact top-k via
    :func:`select_topk_edges`. Candidate batches are pre-filtered against
    the current k-th weight (``>=`` keeps boundary ties alive for the id
    tie-break).
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self.k = k
        self._batches: list[EdgeBatch] = []
        self._buffered = 0
        self._boundary: float | None = None

    def push(self, batch: EdgeBatch) -> None:
        if self.k == 0 or len(batch) == 0:
            return
        if self._boundary is not None:
            keep = batch.weights >= self._boundary
            if not keep.all():
                batch = EdgeBatch(
                    batch.sources[keep], batch.targets[keep], batch.weights[keep]
                )
            if len(batch) == 0:
                return
        self._batches.append(batch)
        self._buffered += len(batch)
        if self._buffered > 2 * self.k + DEFAULT_CHUNK_SIZE:
            self._reduce()

    def _reduce(self) -> None:
        merged = EdgeBatch.concatenate(self._batches)
        selected = select_topk_edges(
            merged.weights, merged.sources, merged.targets, self.k
        )
        reduced = EdgeBatch(
            merged.sources[selected],
            merged.targets[selected],
            merged.weights[selected],
        )
        self._batches = [reduced]
        self._buffered = len(reduced)
        if self._buffered and self._buffered >= self.k:
            self._boundary = float(reduced.weights.min())

    def top(self) -> EdgeBatch:
        """The exact top-k of everything pushed so far."""
        self._reduce()
        return self._batches[0]

    def pairs(self) -> list[tuple[int, int]]:
        """The retained comparisons, sorted ascending (CEP's output order)."""
        best = self.top()
        order = np.lexsort((best.targets, best.sources))
        return list(
            zip(best.sources[order].tolist(), best.targets[order].tolist())
        )


def directed_pair_keys(
    entities: np.ndarray, others: np.ndarray, num_entities: int
) -> np.ndarray:
    """Encode ordered ``(entity, other)`` pairs as sortable int64 keys; a
    canonical ``(low, high)`` pair has one key."""
    stride = np.int64(num_entities + 1)
    return entities.astype(np.int64) * stride + others.astype(np.int64)


def keys_contain(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Vectorised membership of ``keys`` in the sorted key array."""
    if sorted_keys.size == 0 or keys.size == 0:
        return np.zeros(keys.size, dtype=bool)
    positions = np.searchsorted(sorted_keys, keys)
    result = np.zeros(keys.size, dtype=bool)
    valid = positions < sorted_keys.size
    result[valid] = sorted_keys[positions[valid]] == keys[valid]
    return result
