"""Meta-blocking core: the paper's primary contribution.

Workflow (paper Figures 2 and 7a): a redundancy-positive block collection is
(optionally purged and) filtered, its implicit blocking graph is weighted by
one of five schemes, and a pruning algorithm retains the edges likely to
connect duplicates. The retained edges are the restructured comparisons.

Public entry points:

* :func:`~repro.core.pipeline.meta_block` / :class:`~repro.core.pipeline.MetaBlockingWorkflow`
  — one-call workflows;
* :class:`~repro.core.block_filtering.BlockFiltering` — Algorithm 1;
* :mod:`~repro.core.weights` — ARCS, CBS, ECBS, JS, EJS;
* :mod:`~repro.core.edge_weighting` — original (Alg. 2) and optimized
  (Alg. 3) implicit-graph weighting backends;
* :mod:`~repro.core.pruning` — CEP, CNP, WEP, WNP and the redefined /
  reciprocal variants (Algs. 4-5);
* :class:`~repro.core.graph_free.GraphFreeMetaBlocking` — Figure 7b.
"""

from repro.core.block_filtering import BlockFiltering
from repro.core.edge_stream import DEFAULT_CHUNK_SIZE, EdgeBatch
from repro.core.execution import ExecutionConfig
from repro.core.faults import (
    Fault,
    FaultPlan,
    FaultToleranceError,
    InjectedFault,
    InjectedWalTear,
    SpillCorrupted,
    clear_faults,
    fire_wal_fault,
    injected_faults,
    install_faults,
)
from repro.core.edge_weighting import (
    EdgeWeighting,
    OptimizedEdgeWeighting,
    OriginalEdgeWeighting,
)
from repro.core.graph import MaterializedBlockingGraph, blocking_graph_stats
from repro.core.parallel import (
    ParallelMetaBlockingExecutor,
    parallel_prune,
    supports_parallel,
)
from repro.core.vectorized import VectorizedEdgeWeighting
from repro.core.graph_free import GraphFreeMetaBlocking
from repro.core.pipeline import (
    MetaBlockingResult,
    MetaBlockingWorkflow,
    meta_block,
    resume_run,
)
from repro.core.pruning import (
    PRUNING_ALGORITHMS,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningAlgorithm,
    ReciprocalCardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    RedefinedCardinalityNodePruning,
    RedefinedWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.core.wal import (
    FSYNC_POLICIES,
    RecoveryReport,
    WalBroken,
    WalError,
    WriteAheadLog,
    recover_resolver,
    sweep_stale_wal,
)
from repro.core.weights import (
    ARCS,
    CBS,
    ECBS,
    EJS,
    JS,
    WEIGHTING_SCHEMES,
    WeightingScheme,
)

__all__ = [
    "ARCS",
    "CBS",
    "ECBS",
    "EJS",
    "JS",
    "DEFAULT_CHUNK_SIZE",
    "PRUNING_ALGORITHMS",
    "WEIGHTING_SCHEMES",
    "BlockFiltering",
    "CardinalityEdgePruning",
    "EdgeBatch",
    "CardinalityNodePruning",
    "EdgeWeighting",
    "ExecutionConfig",
    "FSYNC_POLICIES",
    "Fault",
    "FaultPlan",
    "FaultToleranceError",
    "InjectedFault",
    "InjectedWalTear",
    "RecoveryReport",
    "SpillCorrupted",
    "WalBroken",
    "WalError",
    "WriteAheadLog",
    "GraphFreeMetaBlocking",
    "MaterializedBlockingGraph",
    "MetaBlockingResult",
    "MetaBlockingWorkflow",
    "OptimizedEdgeWeighting",
    "OriginalEdgeWeighting",
    "ParallelMetaBlockingExecutor",
    "PruningAlgorithm",
    "parallel_prune",
    "supports_parallel",
    "VectorizedEdgeWeighting",
    "ReciprocalCardinalityNodePruning",
    "ReciprocalWeightedNodePruning",
    "RedefinedCardinalityNodePruning",
    "RedefinedWeightedNodePruning",
    "WeightedEdgePruning",
    "WeightedNodePruning",
    "WeightingScheme",
    "blocking_graph_stats",
    "clear_faults",
    "fire_wal_fault",
    "injected_faults",
    "install_faults",
    "meta_block",
    "recover_resolver",
    "resume_run",
    "sweep_stale_wal",
]
