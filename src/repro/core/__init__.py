"""TreePi core: features, partitioning, filtering, pruning, verification."""

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.center_prune import (
    CenterConstraintProblem,
    PruneDecision,
    PruneReport,
    center_prune,
    check_center_constraints,
)
from repro.core.crf import canonical_reconstruction_form, union_graph
from repro.core.engine import QueryEngine, query_cache_key
from repro.core.feature import CenterSet, FeatureTree, ShrunkTree
from repro.core.filtering import FilterOutcome, filter_candidates
from repro.core.partition import (
    Partition,
    PartitionRun,
    QueryPiece,
    random_partition,
    run_partitions,
)
from repro.core.statistics import EngineStats, IndexStats, QueryResult
from repro.core.treepi import QueryPlan, TreePiConfig, TreePiIndex
from repro.core.verification import VerificationStats, verify_candidate

__all__ = [
    "CancellationToken",
    "QueryBudget",
    "CenterConstraintProblem",
    "PruneDecision",
    "PruneReport",
    "center_prune",
    "check_center_constraints",
    "canonical_reconstruction_form",
    "union_graph",
    "CenterSet",
    "FeatureTree",
    "ShrunkTree",
    "FilterOutcome",
    "filter_candidates",
    "Partition",
    "PartitionRun",
    "QueryPiece",
    "random_partition",
    "run_partitions",
    "EngineStats",
    "IndexStats",
    "QueryEngine",
    "QueryPlan",
    "QueryResult",
    "TreePiConfig",
    "TreePiIndex",
    "query_cache_key",
    "VerificationStats",
    "verify_candidate",
]
