"""Index- and query-level statistics records.

Every figure in Section 6 is a statistic exposed here: feature counts
(Fig. 9), candidate-set sizes after filtering and pruning (Figs. 10/11),
and construction/query wall times (Figs. 12/13).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional

from repro.core.verification import VerificationStats
from repro.mining.subtree_miner import MiningStats


@dataclass
class EngineStats:
    """Per-stage runtime counters of one :class:`repro.core.engine.QueryEngine`.

    Shared mutable state guarded by the engine's ``_mutex`` — every
    increment (and every read of the live record, aliasing through
    ``stats.engine`` included) happens under that lock; the REPRO201
    lint rule and the PR-3 audit hold the engine to exactly that.  Read
    a consistent copy through :meth:`snapshot` (or ``QueryEngine.stats``).
    Attached to the wrapped index's :class:`IndexStats` as
    ``stats.engine`` so the same record that describes the build also
    surfaces query-serving behavior; it is runtime-only state and is
    never persisted.

    The timeout counters describe graceful degradation under
    :class:`~repro.core.budget.QueryBudget`: ``timeouts`` counts calls
    whose deadline or work cap cut verification short, ``degraded_results``
    counts the ``complete=False`` answers handed back (one budgeted batch
    can produce several), and ``unresolved_candidates`` sums the
    candidate ids those answers left unverified.  All three stay zero on
    unbudgeted traffic.
    """

    queries: int = 0                 # every query() / query_batch() member
    cache_hits: int = 0
    cache_misses: int = 0
    batch_queries: int = 0           # queries arriving through query_batch()
    batch_dedup_hits: int = 0        # batch members answered by an isomorph
    candidates_filtered: int = 0     # |P_q| summed over executed pipelines
    verifications_run: int = 0       # exact subgraph-isomorphism tests
    invalidations: int = 0           # cache clears (insert/delete/rebuild)
    inserts: int = 0
    deletes: int = 0
    rebuilds: int = 0
    # --- segment-backed (format v3) maintenance counters ---------------
    flushes: int = 0                 # memtable flushes to delta segments
    compactions: int = 0             # delta folds published via compact()
    # --- deadline / degradation counters (budgeted calls only) ---------
    timeouts: int = 0                # calls that returned degraded results
    degraded_results: int = 0        # results returned with complete=False
    unresolved_candidates: int = 0   # candidates left unverified on expiry
    #: verification work units charged to budgeted calls' tokens, summed
    #: (matcher candidate draws + anchored-assignment trials).  Exact:
    #: enumerators flush sub-interval remainders on exit (the pre-fix
    #: matcher silently dropped up to CHECK_INTERVAL-1 steps per call).
    #: Zero on unbudgeted traffic — no token, nothing to account.
    verify_steps: int = 0

    def snapshot(self) -> "EngineStats":
        """An independent copy (safe to keep across further queries)."""
        return replace(self)


@dataclass
class IndexStats:
    """What one index build produced and how long it took."""

    num_features: int
    features_by_size: Dict[int, int]
    total_center_locations: int
    build_seconds: float
    mining: MiningStats
    shrink_removed: int
    #: live counters of the QueryEngine serving this index, if any
    #: (runtime-only; excluded from persistence).
    engine: Optional[EngineStats] = None

    @property
    def max_feature_size(self) -> int:
        return max(self.features_by_size, default=0)


@dataclass
class QueryResult:
    """The answer to one graph query plus the paper's per-phase metrics.

    A result computed under an expired :class:`~repro.core.budget.
    QueryBudget` is *degraded but sound*: ``complete`` is ``False``,
    ``matches`` holds only candidates verified before expiry (every one
    is a true match), and ``unresolved`` holds the candidate ids the
    pipeline never resolved — the exact answer is always a superset of
    ``matches`` and a subset of ``matches | unresolved``.  Degraded
    results are never cached by the engine; retry with a fresh budget to
    resolve the remainder.  ``candidates_after_prune`` equals
    ``candidates_after_filter`` on the serving path, which does not
    prune; :meth:`~repro.core.treepi.TreePiIndex.query_paper` fills it
    with P'_q and counts in ``prune_exhausted`` the candidates kept
    because the per-graph check cap ran out rather than by a
    satisfiability proof (verification still resolves them exactly).
    """

    matches: FrozenSet[int]
    direct_hit: bool = False
    partition_size: int = 0            # |TP_q|
    sfq_size: int = 0                  # |SF_q|
    candidates_after_filter: int = 0   # |P_q|
    candidates_after_prune: int = 0    # |P'_q|
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    verification: VerificationStats = field(default_factory=VerificationStats)
    complete: bool = True              # False => budget expired mid-query
    unresolved: FrozenSet[int] = frozenset()  # candidates never resolved
    degraded_reason: Optional[str] = None     # "deadline" / "verify-budget"
    prune_exhausted: int = 0           # survivors kept by exhausted prune budget

    @property
    def support(self) -> int:
        """``|D_q|`` — the true answer size."""
        return len(self.matches)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def false_positives_after_prune(self) -> int:
        """Candidates the verifier had to reject (lower is better)."""
        return self.candidates_after_prune - len(self.matches)
