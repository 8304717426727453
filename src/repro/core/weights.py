"""The five edge weighting schemes of Meta-blocking (paper, Figure 4).

Every scheme maps an edge of the blocking graph to a weight proportional to
the likelihood that its incident entities match. All are pure functions of
per-edge co-occurrence statistics plus two graph-level constants, so the
original (Algorithm 2) and optimized (Algorithm 3) weighting backends
provably produce identical weights — a property the test-suite checks.

Per-edge statistics (gathered by :mod:`repro.core.edge_weighting`):

``common_blocks``
    ``|B_ij|`` — number of blocks shared by the two entities.
``arcs_sum``
    ``sum(1 / ||b|| for b in B_ij)`` — only accumulated when the scheme's
    :attr:`~WeightingScheme.uses_arcs_sum` flag is set.
``blocks_i`` / ``blocks_j``
    ``|B_i|``, ``|B_j|`` — blocks containing each entity.
``degree_i`` / ``degree_j``
    ``|v_i|``, ``|v_j|`` — node degrees (distinct co-occurring entities);
    only computed when :attr:`~WeightingScheme.uses_degrees` is set, since
    they require an extra pass over the graph.

Graph-level constants: ``total_blocks`` (``|B|``) and ``total_edges``
(``|E_B|``, the number of distinct comparisons).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


def _log10_ratios(total: int, left, right) -> "tuple[np.ndarray, np.ndarray]":
    """``math.log10(total / v)`` for every ``v`` of both endpoint arrays.

    numpy's ``log10`` and :func:`math.log10` can differ in the last bit, so
    the array schemes take the same scalar function as :meth:`weight`, once
    per distinct value, and gather the factors per edge. Zero values get a
    ``0.0`` placeholder; the callers zero those weights anyway.
    """
    values = np.concatenate(
        (np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64))
    )
    distinct, inverse = np.unique(values, return_inverse=True)
    logs = np.array(
        [math.log10(total / value) if value else 0.0 for value in distinct.tolist()],
        dtype=np.float64,
    )
    factors = logs[inverse.reshape(-1)]
    return factors[: len(factors) // 2], factors[len(factors) // 2 :]


class WeightingScheme(ABC):
    """Base class for edge weighting schemes."""

    #: Registry / CLI name of the scheme.
    name: str = ""
    #: Whether the backend must accumulate ``sum(1/||b||)`` over shared blocks.
    uses_arcs_sum: bool = False
    #: Whether the backend must pre-compute node degrees (extra graph pass).
    uses_degrees: bool = False
    #: Whether the scheme can serve streaming/incremental queries. Degree-
    #: based schemes need a full extra pass over the graph per epoch, which
    #: defeats per-upsert querying, and the resolver's write-ahead log
    #: records a scheme by name only, so a scheme carrying state (a trained
    #: model) could not be restored; both are batch-only.
    streamable: bool = True

    @abstractmethod
    def weight(
        self,
        common_blocks: int,
        arcs_sum: float,
        blocks_i: int,
        blocks_j: int,
        degree_i: int,
        degree_j: int,
        total_blocks: int,
        total_edges: int,
    ) -> float:
        """Return the weight of one edge from its co-occurrence statistics."""

    def weight_array(
        self,
        common_blocks,
        arcs_sum,
        blocks_i,
        blocks_j,
        degree_i,
        degree_j,
        total_blocks: int,
        total_edges: int,
    ):
        """Vectorized :meth:`weight` over numpy arrays of edge statistics.

        Used by every bulk weighting path; the per-scheme overrides are
        numpy expressions of the same formulas, and the test suite asserts
        that they are bit-identical to the scalar path.
        """
        return np.array(
            [
                self.weight(
                    int(common),
                    float(arcs),
                    int(bi),
                    int(bj),
                    int(di),
                    int(dj),
                    total_blocks,
                    total_edges,
                )
                for common, arcs, bi, bj, di, dj in zip(
                    common_blocks, arcs_sum, blocks_i, blocks_j, degree_i, degree_j
                )
            ],
            dtype=float,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ARCS(WeightingScheme):
    """Aggregate Reciprocal Comparisons Scheme.

    ``ARCS(i, j) = sum(1 / ||b_k|| for b_k in B_ij)`` — the smaller the
    blocks two profiles share, the more likely they match.
    """

    name = "ARCS"
    uses_arcs_sum = True

    def weight_array(
        self,
        common_blocks,
        arcs_sum,
        blocks_i,
        blocks_j,
        degree_i,
        degree_j,
        total_blocks: int,
        total_edges: int,
    ):
        return np.asarray(arcs_sum, dtype=float)

    def weight(
        self,
        common_blocks: int,
        arcs_sum: float,
        blocks_i: int,
        blocks_j: int,
        degree_i: int,
        degree_j: int,
        total_blocks: int,
        total_edges: int,
    ) -> float:
        return arcs_sum


class CBS(WeightingScheme):
    """Common Blocks Scheme: ``CBS(i, j) = |B_ij|``.

    The fundamental redundancy-positive signal — profiles sharing many
    blocks are likely matches.
    """

    name = "CBS"

    def weight_array(
        self,
        common_blocks,
        arcs_sum,
        blocks_i,
        blocks_j,
        degree_i,
        degree_j,
        total_blocks: int,
        total_edges: int,
    ):
        return np.asarray(common_blocks, dtype=float)

    def weight(
        self,
        common_blocks: int,
        arcs_sum: float,
        blocks_i: int,
        blocks_j: int,
        degree_i: int,
        degree_j: int,
        total_blocks: int,
        total_edges: int,
    ) -> float:
        return float(common_blocks)


class ECBS(WeightingScheme):
    """Enhanced Common Blocks Scheme.

    ``ECBS(i, j) = CBS(i, j) · log10(|B|/|B_i|) · log10(|B|/|B_j|)`` —
    CBS discounted for profiles placed in very many blocks (the IDF idea).
    """

    name = "ECBS"

    def weight_array(
        self,
        common_blocks,
        arcs_sum,
        blocks_i,
        blocks_j,
        degree_i,
        degree_j,
        total_blocks: int,
        total_edges: int,
    ):
        common = np.asarray(common_blocks, dtype=float)
        log_i, log_j = _log10_ratios(total_blocks, blocks_i, blocks_j)
        # The two log factors are multiplied together first: IEEE
        # multiplication is commutative, so the weight of an edge is
        # bit-identical no matter which endpoint computes it (the
        # left-to-right grouping differs by one ulp between endpoints,
        # enough to flip retention at an exact threshold).
        weights = common * (log_i * log_j)
        zero = (
            (common == 0)
            | (np.asarray(blocks_i) == 0)
            | (np.asarray(blocks_j) == 0)
        )
        weights[zero] = 0.0
        return weights

    def weight(
        self,
        common_blocks: int,
        arcs_sum: float,
        blocks_i: int,
        blocks_j: int,
        degree_i: int,
        degree_j: int,
        total_blocks: int,
        total_edges: int,
    ) -> float:
        if common_blocks == 0 or blocks_i == 0 or blocks_j == 0:
            return 0.0
        # Logs multiplied first so both endpoints compute the same bits
        # (see weight_array).
        return common_blocks * (
            math.log10(total_blocks / blocks_i)
            * math.log10(total_blocks / blocks_j)
        )


class JS(WeightingScheme):
    """Jaccard Scheme: the portion of blocks shared by the two profiles.

    ``JS(i, j) = |B_ij| / (|B_i| + |B_j| - |B_ij|)``.
    """

    name = "JS"

    def weight_array(
        self,
        common_blocks,
        arcs_sum,
        blocks_i,
        blocks_j,
        degree_i,
        degree_j,
        total_blocks: int,
        total_edges: int,
    ):
        common = np.asarray(common_blocks, dtype=float)
        denominator = (
            np.asarray(blocks_i, dtype=float)
            + np.asarray(blocks_j, dtype=float)
            - common
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = common / denominator
        weights[denominator == 0] = 0.0
        return weights

    def weight(
        self,
        common_blocks: int,
        arcs_sum: float,
        blocks_i: int,
        blocks_j: int,
        degree_i: int,
        degree_j: int,
        total_blocks: int,
        total_edges: int,
    ) -> float:
        denominator = blocks_i + blocks_j - common_blocks
        if denominator == 0:
            return 0.0
        return common_blocks / denominator


class EJS(WeightingScheme):
    """Enhanced Jaccard Scheme.

    ``EJS(i, j) = JS(i, j) · log10(|E_B|/|v_i|) · log10(|E_B|/|v_j|)`` —
    JS discounted for profiles involved in many non-redundant comparisons
    (high node degree). The only scheme requiring node degrees, hence an
    extra pass over the blocking graph.
    """

    name = "EJS"
    uses_degrees = True
    streamable = False

    def weight_array(
        self,
        common_blocks,
        arcs_sum,
        blocks_i,
        blocks_j,
        degree_i,
        degree_j,
        total_blocks: int,
        total_edges: int,
    ):
        common = np.asarray(common_blocks, dtype=float)
        if total_edges == 0:
            return np.zeros(common.shape, dtype=float)
        denominator = (
            np.asarray(blocks_i, dtype=float)
            + np.asarray(blocks_j, dtype=float)
            - common
        )
        log_i, log_j = _log10_ratios(total_edges, degree_i, degree_j)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Logs multiplied together first for endpoint symmetry (see ECBS).
            weights = (common / denominator) * (log_i * log_j)
        invalid = (
            (denominator == 0)
            | (np.asarray(degree_i) == 0)
            | (np.asarray(degree_j) == 0)
        )
        weights[invalid] = 0.0
        return weights

    def weight(
        self,
        common_blocks: int,
        arcs_sum: float,
        blocks_i: int,
        blocks_j: int,
        degree_i: int,
        degree_j: int,
        total_blocks: int,
        total_edges: int,
    ) -> float:
        denominator = blocks_i + blocks_j - common_blocks
        if denominator == 0 or degree_i == 0 or degree_j == 0 or total_edges == 0:
            return 0.0
        jaccard = common_blocks / denominator
        # Logs multiplied first so both endpoints compute the same bits
        # (see weight_array).
        return jaccard * (
            math.log10(total_edges / degree_i)
            * math.log10(total_edges / degree_j)
        )


class X2(WeightingScheme):
    """Pearson chi-square weighting (extension; used by BLAST-style systems).

    Tests the independence of the two entities' block memberships with the
    2x2 contingency table over the ``|B|`` blocks::

        o11 = |B_ij|            o12 = |B_i| - |B_ij|
        o21 = |B_j| - |B_ij|    o22 = |B| - |B_i| - |B_j| + |B_ij|

    and weighs the edge by the chi-square statistic. High values mean the
    co-occurrence is far above chance. Not one of the paper's five schemes,
    so it lives in :data:`EXTRA_WEIGHTING_SCHEMES` and does not participate
    in the "averaged over all weighting schemes" benchmark tables.
    """

    name = "X2"

    def weight(
        self,
        common_blocks: int,
        arcs_sum: float,
        blocks_i: int,
        blocks_j: int,
        degree_i: int,
        degree_j: int,
        total_blocks: int,
        total_edges: int,
    ) -> float:
        o11 = common_blocks
        o12 = blocks_i - common_blocks
        o21 = blocks_j - common_blocks
        o22 = total_blocks - blocks_i - blocks_j + common_blocks
        denominator = (
            (o11 + o12) * (o21 + o22) * (o11 + o21) * (o12 + o22)
        )
        if denominator <= 0:
            return 0.0
        return total_blocks * (o11 * o22 - o12 * o21) ** 2 / denominator


#: Registry of scheme instances, keyed by their paper acronym.
WEIGHTING_SCHEMES: dict[str, WeightingScheme] = {
    scheme.name: scheme for scheme in (ARCS(), CBS(), ECBS(), JS(), EJS())
}

#: Schemes beyond the paper's five, usable everywhere via :func:`get_scheme`
#: but excluded from the benchmark tables that average over "all schemes".
EXTRA_WEIGHTING_SCHEMES: dict[str, WeightingScheme] = {"X2": X2()}


def get_scheme(scheme: "str | WeightingScheme") -> WeightingScheme:
    """Resolve a scheme given by name or instance."""
    if isinstance(scheme, WeightingScheme):
        return scheme
    name = scheme.upper()
    if name in WEIGHTING_SCHEMES:
        return WEIGHTING_SCHEMES[name]
    if name in EXTRA_WEIGHTING_SCHEMES:
        return EXTRA_WEIGHTING_SCHEMES[name]
    known = ", ".join(sorted(WEIGHTING_SCHEMES) + sorted(EXTRA_WEIGHTING_SCHEMES))
    raise ValueError(f"unknown weighting scheme {scheme!r}; known: {known}")
