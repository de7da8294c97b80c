"""The TreePi index — the paper's primary contribution, end to end.

``TreePiIndex.build`` runs database preprocessing (Section 4): frequent
subtree mining under σ(s), γ-shrinking, feature materialization with
exact center locations, and a dictionary from canonical string to
feature (the paper's prefix-tree index, Section 4.2.2, is only ever asked
for exact keys, so a hash map answers every lookup).

``TreePiIndex.query`` runs query processing (Section 5): randomized
Feature-Tree-Partition, support-set filtering, Center Distance Constraint
pruning, and reconstruction-based verification.  The result is exactly
``D_q = {g : q ⊆ g}``.

``insert`` / ``delete`` implement the Section 7.1 maintenance scheme:
occurrences of existing features are updated in place, and the index
advertises a rebuild once churn passes one quarter of the build size.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow import hot_path
from repro.analysis.guards import guarded_by
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.center_prune import CenterConstraintProblem, center_prune
from repro.core.feature import FeatureTree
from repro.core.filtering import filter_candidates
from repro.core.partition import SubsetMemo, canonical_subset, run_partitions
from repro.core.statistics import IndexStats, QueryResult
from repro.core.verification import VerificationStats, verify_candidate
from repro.exceptions import BudgetExceeded, GraphError, IndexError_
from repro.graphs.distances import DistanceOracle
from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.graphs.isomorphism import is_subgraph_isomorphic, subgraph_monomorphisms
from repro.mining.patterns import MinedPattern
from repro.mining.shrink import leaf_removed_subtrees, shrink_feature_set
from repro.mining.subtree_miner import FrequentSubtreeMiner, _chunk
from repro.mining.support import SupportFunction
from repro.storage import PostingList
from repro.trees.canonical import tree_canonical_string
from repro.trees.center import tree_center

if TYPE_CHECKING:
    from repro.storage.segments import CompactionPlan, SegmentStore


def _augmentation_keys(
    query: LabeledGraph, max_size: int, memo: SubsetMemo
) -> Tuple[List[str], List[str]]:
    """Canonical strings of every subtree of the query up to ``max_size`` edges.

    Returns ``(single_edge_keys, larger_keys)``.  Sizes up to α are indexed
    unconditionally (σ(s) = 1), so intersecting their supports sharpens
    SF_q essentially for free; misses among the larger keys are ignored by
    filtering (they may have been γ-shrunk), while a missing *single edge*
    proves the query unanswerable.

    Enumeration grows connected acyclic edge subsets breadth-first; a
    subset that closes a cycle stops extending (supersets stay cyclic).
    Every subset's canonical form lands in ``memo`` for ``RP(q)`` to reuse.
    """
    single_edge_keys: List[str] = []
    larger_keys: Set[str] = set()
    frontier: List[frozenset] = []
    seen: Set[frozenset] = set()
    for u, v, _ in query.edges():
        es = frozenset({(u, v)})
        single_edge_keys.append(_subtree_key(query, es, memo))
        seen.add(es)
        frontier.append(es)

    size = 1
    while frontier and size < max_size:
        next_frontier: List[frozenset] = []
        for es in frontier:
            touched = {w for e in es for w in e}
            for u in touched:
                for v in query.neighbors(u):
                    if v in touched:
                        continue  # the edge is in es or would close a cycle
                    extended = es | {(u, v) if u < v else (v, u)}
                    if extended in seen:
                        continue
                    seen.add(extended)
                    larger_keys.add(_subtree_key(query, extended, memo))
                    next_frontier.append(extended)
        frontier = next_frontier
        size += 1
    return single_edge_keys, sorted(larger_keys)


def _subtree_key(query: LabeledGraph, edges: frozenset, memo: SubsetMemo) -> str:
    """Canonical key of an edge subset known to form a tree."""
    canon = canonical_subset(query, edges, memo)
    assert canon is not None, "augmentation only grows acyclic subsets"
    return canon[0]


def _materialize_features(
    items: List[Tuple[int, MinedPattern]]
) -> List[FeatureTree]:
    """Build feature-location tables for a chunk of (id, pattern) pairs.

    A pure function of its input, so chunks can be fanned out over a
    process pool; feature ids are assigned by the caller in canonical-key
    order, making the merged list independent of chunking.
    """
    return [
        FeatureTree.from_mined_pattern(fid, pattern) for fid, pattern in items
    ]


@dataclass(frozen=True)
class TreePiConfig:
    """Build/query knobs (paper defaults in Section 6.1 commentary).

    * ``support`` — the σ(s) function (α, β, η),
    * ``gamma``   — shrinking parameter γ ∈ [1, 3],
    * ``delta``   — partition restarts δ; ``None`` uses |E(q)| per query,
    * ``enable_center_prune`` — ablation switch for Algorithm 2,
    * ``augment_small_subtrees`` — also intersect the supports of every 1-
      and 2-edge subtree of the query (cheap canonical lookups; σ(s)=1 at
      those sizes indexes them all, so this strengthens SF_q at no risk),
    * ``paths_only`` — restrict features to *path-shaped* trees.  This
      degrades TreePi into a GraphGrep-flavored index inside the same
      framework; the A4 ablation uses it to measure what branching tree
      features buy over paths (the paper's Section 1 argument),
    * ``direct_verification_max_edges`` — queries at or below this edge
      count verify candidates with a plain monomorphism search instead of
      anchored reconstruction: the reconstruction machinery's per-candidate
      setup cannot amortize on tiny queries (both verifiers are exact;
      set to 0 to always reconstruct, as the paper describes),
    * ``max_embeddings_per_graph`` — optional miner memory cap (approximate
      mining; the default ``None`` keeps the index exact),
    * ``matcher_prefilters`` — use the cached per-graph label-pair /
      neighboring-label-signature structures (:mod:`repro.graphs.
      matcher_index`) to refute candidates in center pruning and
      verification before any backtracking.  Answer sets are identical
      either way (every filter is a necessary condition — the
      differential suites pin this); ``False`` restores the unfiltered
      matcher, whose worst-case cost the deadline tests and adversarial
      benchmarks rely on.  A runtime performance knob like ``workers``:
      it cannot change what gets built or answered, so it is
      deliberately excluded from persistence,
    * ``seed``    — RNG seed for the randomized partition,
    * ``workers`` — process-pool width for index construction.  Mining's
      per-graph embedding enumeration and the feature-location table
      build are fanned out and merged in canonical-key order, so the
      built index (and its serialized JSON) is byte-identical for every
      value; ``workers`` is a runtime knob, not part of index identity,
      and is deliberately excluded from persistence.
    """

    support: SupportFunction
    gamma: float = 1.5
    delta: Optional[int] = None
    enable_center_prune: bool = True
    augment_small_subtrees: bool = True
    paths_only: bool = False
    direct_verification_max_edges: int = 5
    center_prune_budget: int = 2000
    max_embeddings_per_graph: Optional[int] = None
    matcher_prefilters: bool = True
    seed: int = 2007
    workers: int = 1


@dataclass
class QueryPlan:
    """The state of one query after partition / filter / prune.

    ``result`` is set when the pipeline short-circuited (direct hit,
    provably empty answer); otherwise ``survivors`` lists the candidate
    graph ids still awaiting :meth:`TreePiIndex.verify`, and ``problem``
    carries the center-constraint instance verification anchors on.
    """

    query: LabeledGraph
    result: Optional[QueryResult] = None
    survivors: List[int] = field(default_factory=list)
    problem: Optional[CenterConstraintProblem] = None
    partition_size: int = 0
    sfq_size: int = 0
    candidates_after_filter: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: survivors kept because the center-prune budget/deadline ran out
    #: before a proof either way (kept-by-exhaustion, still sound).
    prune_exhausted: int = 0


class TreePiIndex:
    """A built TreePi index over one :class:`GraphDatabase`."""

    def __init__(
        self,
        database: GraphDatabase,
        config: TreePiConfig,
        features: List[FeatureTree],
        stats: IndexStats,
    ) -> None:
        self._db = database
        self._config = config
        self._features = features
        self._lookup: Dict[str, FeatureTree] = {f.key: f for f in features}
        self._stats = stats
        self._build_size = len(database)
        self._churn = 0
        # Per-graph BFS distance oracles, shared across queries (graphs are
        # treated as immutable once indexed; maintenance invalidates).
        self._oracles: Dict[int, "DistanceOracle"] = {}
        # Set by QueryEngine.attach_serving_lock: once an engine serves
        # this index, direct maintenance calls must hold its write lock
        # (enforced by @guarded_by under REPRO_CONTRACTS=1).
        self._serving_lock: Optional[object] = None
        # Set by attach_segment_store for v3 (mmap-backed) indexes:
        # maintenance then buffers into memtables/tombstones instead of
        # advertising rebuilds, and flushes/compacts through the store.
        self._segment_store: Optional["SegmentStore"] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, database: GraphDatabase, config: TreePiConfig) -> "TreePiIndex":
        """Database preprocessing: mine, shrink, materialize features."""
        if len(database) == 0:
            raise IndexError_("cannot build an index over an empty database")
        if config.workers < 1:
            raise IndexError_(f"workers must be >= 1, got {config.workers}")
        start = time.perf_counter()
        miner = FrequentSubtreeMiner(
            database,
            config.support,
            max_embeddings_per_graph=config.max_embeddings_per_graph,
            workers=config.workers,
        )
        mined = miner.mine()
        shrink = shrink_feature_set(mined.patterns, config.gamma)
        kept = list(shrink.kept.values())
        if config.paths_only:
            kept = [
                p for p in kept
                if all(p.graph.degree(v) <= 2 for v in p.graph.vertices())
            ]
        enumerated = list(enumerate(kept))
        if config.workers > 1 and len(enumerated) > 1:
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                parts = list(
                    pool.map(
                        _materialize_features,
                        _chunk(enumerated, config.workers),
                    )
                )
            features = [f for part in parts for f in part]
            features.sort(key=lambda f: f.feature_id)
        else:
            features = _materialize_features(enumerated)
        by_size: Dict[int, int] = {}
        for f in features:
            by_size[f.size] = by_size.get(f.size, 0) + 1
        stats = IndexStats(
            num_features=len(features),
            features_by_size=by_size,
            total_center_locations=sum(f.total_locations() for f in features),
            build_seconds=time.perf_counter() - start,
            mining=mined.stats,
            shrink_removed=shrink.removed_count,
        )
        return cls(database, config, features, stats)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def database(self) -> GraphDatabase:
        return self._db

    @property
    def config(self) -> TreePiConfig:
        return self._config

    @property
    def stats(self) -> IndexStats:
        return self._stats

    @property
    def features(self) -> List[FeatureTree]:
        return list(self._features)

    def feature_count(self) -> int:
        return len(self._features)

    def storage_bytes(self) -> int:
        """Resident bytes of the columnar occurrence/support storage.

        Counts the posting and center columns of every feature's
        :class:`~repro.storage.occurrences.OccurrenceStore` — the part of
        the index the storage layer owns (graphs, the key map and stats live
        elsewhere).
        """
        return sum(f.store.nbytes() for f in self._features)

    def has_feature(self, key: str) -> bool:
        return key in self._lookup

    def feature_by_key(self, key: str) -> Optional[FeatureTree]:
        return self._lookup.get(key)

    # ------------------------------------------------------------------
    # query processing (Section 5)
    # ------------------------------------------------------------------
    @hot_path
    def query(
        self, query: LabeledGraph, budget: Optional[QueryBudget] = None
    ) -> QueryResult:
        """Find ``D_q`` — all database graphs containing ``query``.

        With a ``budget``, the pipeline degrades gracefully instead of
        running unboundedly: on expiry the result carries the matches
        verified so far plus the unresolved candidate ids and is flagged
        ``complete=False`` (see :mod:`repro.core.budget`).  Without one
        the behavior is byte-identical to the unbudgeted pipeline.
        """
        token = budget.start() if budget is not None else None
        plan = self.plan(query, token=token, budget=budget)
        if plan.result is not None:
            return plan.result
        t0 = time.perf_counter()
        vstats = VerificationStats()
        matches: Set[int] = set()
        unresolved: List[int] = []
        for gid in plan.survivors:
            try:
                if self.verify(plan, gid, vstats, token=token):
                    matches.add(gid)
            except BudgetExceeded:
                unresolved.append(gid)
        return self.finish(
            plan,
            frozenset(matches),
            vstats,
            time.perf_counter() - t0,
            unresolved=unresolved,
            degraded_reason=token.reason if token is not None else None,
        )

    @hot_path
    def plan(
        self,
        query: LabeledGraph,
        token: Optional[CancellationToken] = None,
        budget: Optional[QueryBudget] = None,
    ) -> "QueryPlan":
        """Run partition / filter / prune, stopping short of verification.

        Returns a :class:`QueryPlan`; when the pipeline can already prove
        the answer (direct feature hit, missing single edge, empty filter
        intersection) the plan carries a final ``result`` and an empty
        survivor list, otherwise the survivors still need :meth:`verify`.
        This staged form is what :class:`repro.core.engine.QueryEngine`
        uses to parallelize verification across candidates.

        ``token`` bounds the center-pruning stage (partition and filter
        are low-order polynomial and run to completion): when the
        deadline expires mid-prune the remaining candidates are kept
        unexamined, which only ever *grows* the survivor superset.
        ``budget`` additionally overrides the per-graph prune-check cap
        via :attr:`QueryBudget.prune_checks`.
        """
        if query.num_edges == 0:
            raise GraphError("query graphs must have at least one edge")
        if not query.is_connected():
            raise GraphError("query graphs must be connected")

        phases: Dict[str, float] = {}
        t0 = time.perf_counter()
        memo: SubsetMemo = {}

        # Fast path: the query itself is an indexed feature tree, so its
        # exact support set is already materialized (RP's first check).
        whole = canonical_subset(
            query, frozenset((u, v) for u, v, _ in query.edges()), memo
        )
        if whole is not None:
            feature = self._lookup.get(whole[0])
            if feature is not None:
                phases["lookup"] = time.perf_counter() - t0
                support = feature.support_set()
                return QueryPlan(
                    query=query,
                    result=QueryResult(
                        matches=support,
                        direct_hit=True,
                        partition_size=1,
                        sfq_size=1,
                        candidates_after_filter=len(support),
                        candidates_after_prune=len(support),
                        phase_seconds=phases,
                    ),
                )

        # Every single edge of the query must be an indexed feature (σ(1)=1
        # and size-1 trees are never shrunk); a miss proves D_q is empty.
        # Enumerate up to 3-edge subtrees even when α < 3: lookups whose
        # keys are absent (infrequent or shrunk) are skipped soundly, and
        # present ones buy the same filter power gIndex gets from its
        # exhaustive ≤3-edge enumeration.
        single_edge_keys, larger_keys = _augmentation_keys(
            query, max(3, self._config.support.alpha), memo
        )
        for key in single_edge_keys:
            if key not in self._lookup:
                phases["partition"] = time.perf_counter() - t0
                return QueryPlan(
                    query=query,
                    result=QueryResult(
                        matches=frozenset(), phase_seconds=phases
                    ),
                )
        extra_keys = single_edge_keys + larger_keys

        # Stage-1 filter on the augmentation subtrees alone.  Cheap (pure
        # lookups and posting-list merges), and when it already leaves only
        # a handful of candidates the partition budget δ can shrink: SF_q
        # diversity buys nothing on a near-final candidate set, while TP_q
        # for verification needs only a few restarts.  ``stage1`` is the
        # ``P_q ← D`` initializer handed to Algorithm 1; when augmentation
        # features exist their intersection bounds it without ever copying
        # the database id set.
        stage1: Optional[PostingList] = None
        if self._config.augment_small_subtrees:
            # dict.fromkeys dedups while keeping list order; intersection
            # is order-free and intersect_many runs smallest-first with
            # the Algorithm 1 early exit.
            postings = [
                self._lookup[k].support_posting()
                for k in dict.fromkeys(extra_keys)
                if k in self._lookup
            ]
            if postings:
                stage1 = PostingList.intersect_many(postings, early_exit=True)
        if stage1 is None:
            stage1 = self._db.universe_posting()

        rng = random.Random(self._config.seed)
        delta = self._config.delta or max(1, query.num_edges)
        if len(stage1) <= 8:
            delta = min(delta, 3)
        run = run_partitions(query, self._lookup.__contains__, delta, rng, memo)
        phases["partition"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        outcome = filter_candidates(
            stage1, run.feature_subtrees.values(), self._lookup
        )
        phases["filter"] = time.perf_counter() - t0
        if outcome.definitely_empty:
            return QueryPlan(
                query=query,
                result=QueryResult(
                    matches=frozenset(),
                    partition_size=run.best.size,
                    sfq_size=run.sfq_size,
                    candidates_after_filter=len(outcome.candidates),
                    candidates_after_prune=0,
                    phase_seconds=phases,
                ),
            )

        t0 = time.perf_counter()
        problem = CenterConstraintProblem.from_partition(
            query, run.best, self._lookup
        )
        candidates = sorted(outcome.candidates)
        prune_exhausted = 0
        if self._config.enable_center_prune:
            prune_budget = self._config.center_prune_budget
            if budget is not None and budget.prune_checks is not None:
                prune_budget = budget.prune_checks
            report = center_prune(
                problem,
                candidates,
                {gid: self._db[gid] for gid in candidates},
                oracles=self._oracles,
                budget_per_graph=prune_budget,
                token=token,
                query=query if self._config.matcher_prefilters else None,
            )
            survivors = report.survivors
            prune_exhausted = report.exhausted + report.skipped
        else:
            survivors = candidates
        phases["center_prune"] = time.perf_counter() - t0
        return QueryPlan(
            query=query,
            survivors=list(survivors),
            problem=problem,
            partition_size=run.best.size,
            sfq_size=run.sfq_size,
            candidates_after_filter=len(outcome.candidates),
            phase_seconds=phases,
            prune_exhausted=prune_exhausted,
        )

    @hot_path
    def verify(
        self,
        plan: "QueryPlan",
        gid: int,
        vstats: VerificationStats,
        token: Optional[CancellationToken] = None,
    ) -> bool:
        """Exactly test one surviving candidate of ``plan``.

        Safe to call concurrently from several threads for distinct
        candidates of the same plan as long as each caller passes its own
        ``vstats`` (or tolerates racy counter increments).  With a
        ``token``, an expired budget unwinds the search with
        :class:`~repro.exceptions.BudgetExceeded` — the candidate is then
        *unresolved*, never silently matched or rejected.
        """
        query = plan.query
        prefilter = self._config.matcher_prefilters
        if query.num_edges <= self._config.direct_verification_max_edges:
            return is_subgraph_isomorphic(
                query, self._db[gid], token=token, prefilter=prefilter
            )
        assert plan.problem is not None
        return verify_candidate(
            query,
            plan.problem,
            self._db[gid],
            gid,
            vstats,
            oracle=self._oracles.setdefault(gid, DistanceOracle(self._db[gid])),
            token=token,
            prefilter=prefilter,
        )

    def finish(
        self,
        plan: "QueryPlan",
        matches: frozenset,
        vstats: VerificationStats,
        verify_seconds: float,
        unresolved: Sequence[int] = (),
        degraded_reason: Optional[str] = None,
    ) -> QueryResult:
        """Assemble the final :class:`QueryResult` for a verified plan.

        ``unresolved`` lists survivors whose verification was cut short
        by budget expiry; a non-empty list flags the result
        ``complete=False`` (degraded but sound — ``matches`` holds only
        exactly-verified graphs).
        """
        phases = dict(plan.phase_seconds)
        phases["verification"] = verify_seconds
        return QueryResult(
            matches=matches,
            partition_size=plan.partition_size,
            sfq_size=plan.sfq_size,
            candidates_after_filter=plan.candidates_after_filter,
            candidates_after_prune=len(plan.survivors),
            phase_seconds=phases,
            verification=vstats,
            complete=not unresolved,
            unresolved=frozenset(unresolved),
            degraded_reason=degraded_reason if unresolved else None,
            prune_exhausted=plan.prune_exhausted,
        )

    # ------------------------------------------------------------------
    # maintenance (Section 7.1)
    # ------------------------------------------------------------------
    def attach_serving_lock(self, lock: object) -> None:
        """Declare that ``lock`` (an engine's RW lock) now guards this index.

        A standalone index is single-owner and unchecked; once served by
        a :class:`~repro.core.engine.QueryEngine`, the ``@guarded_by``
        contracts on :meth:`insert`/:meth:`delete` require the engine's
        write lock, so maintenance that bypasses the engine (and its
        cache invalidation) fails fast under ``REPRO_CONTRACTS=1``.
        """
        self._serving_lock = lock

    @guarded_by("_serving_lock", mode="write")
    def insert(
        self, graph: LabeledGraph, graph_id: Optional[int] = None
    ) -> int:
        """Add a graph: update support sets and center positions in place.

        ``graph_id`` may pin a specific unused database id (the sharded
        serving tier allocates ids globally and pins them per shard so
        per-shard answer sets stay directly unionable).

        Edge types never seen before are materialized as fresh single-edge
        features first — the completeness floor (σ(1)=1, every database
        edge indexed) must survive maintenance, otherwise the missing-edge
        emptiness proof in :meth:`query` would turn false.  By induction no
        earlier graph can contain a type that was absent from the lookup.

        Existing features are then scanned smallest-first with apriori
        pruning: a feature whose (feature) subtrees are absent from the new
        graph cannot occur.
        """
        gid = self._db.add(graph, graph_id=graph_id)
        for u, v, elabel in graph.edges():
            probe = LabeledGraph(
                [graph.vertex_label(u), graph.vertex_label(v)], [(0, 1, elabel)]
            )
            key = tree_canonical_string(probe)
            if key not in self._lookup:
                feature = FeatureTree(
                    feature_id=len(self._features),
                    tree=probe,
                    key=key,
                    center=tree_center(probe),
                )
                if self._segment_store is not None:
                    self._segment_store.adopt_feature(feature)
                self._features.append(feature)
                self._lookup[key] = feature
        present: Dict[str, List[Dict[int, int]]] = {}
        for feature in sorted(self._features, key=lambda f: f.size):
            if feature.size >= 2:
                prunable = False
                for sub_key, _ in leaf_removed_subtrees(feature.tree):
                    if sub_key in self._lookup and sub_key not in present:
                        prunable = True
                        break
                if prunable:
                    continue
            embeddings = list(subgraph_monomorphisms(feature.tree, graph))
            if not embeddings:
                continue
            present[feature.key] = embeddings
            centers = {
                tuple(sorted(emb[v] for v in feature.center))
                for emb in embeddings
            }
            feature.add_occurrences(gid, centers)
        self._churn += 1
        if self._segment_store is not None:
            self._segment_store.note_insert()
        return gid

    @guarded_by("_serving_lock", mode="write")
    def delete(self, graph_id: int) -> None:
        """Remove a graph and purge its entries from every feature."""
        self._db.remove(graph_id)
        for feature in self._features:
            feature.remove_graph(graph_id)
        self._oracles.pop(graph_id, None)
        self._churn += 1
        if self._segment_store is not None:
            self._segment_store.note_delete(graph_id)

    @property
    def churn_fraction(self) -> float:
        """Inserts+deletes since build, relative to the build-time size."""
        return self._churn / max(1, self._build_size)

    def needs_rebuild(self) -> bool:
        """Section 7.1's guidance: rebuild after ~25% of graphs changed.

        A segment-backed index never advertises one: maintenance is
        absorbed by delta segments and folded by compaction, which
        preserves answers exactly — the rebuild heuristic exists to
        re-mine features, and the LSM path keeps the feature set exact
        incrementally (new edge types materialize on insert, dead data
        is tombstoned out).
        """
        if self._segment_store is not None:
            return False
        return self.churn_fraction >= 0.25

    def rebuild(self) -> "TreePiIndex":
        """Reconstruct the feature set from the current database state."""
        return TreePiIndex.build(self._db, self._config)

    # ------------------------------------------------------------------
    # segment-backed maintenance (format v3)
    # ------------------------------------------------------------------
    @property
    def segment_backed(self) -> bool:
        """True when this index maintains an mmap segment directory."""
        return self._segment_store is not None

    @property
    def segment_store(self) -> Optional["SegmentStore"]:
        return self._segment_store

    def attach_segment_store(self, store: "SegmentStore") -> None:
        """Bind the segment directory this index was loaded from.

        Hands the store the live database and the index's *own* feature
        list (so features materialized by later inserts participate in
        flushes), after which ``insert``/``delete`` become memtable/
        tombstone appends and ``needs_rebuild`` stays False forever.
        """
        from repro.storage.segments import SegmentGraphDatabase

        if not isinstance(self._db, SegmentGraphDatabase):
            raise IndexError_(
                "attach_segment_store requires a SegmentGraphDatabase-"
                "backed index (load it with load_index on a v3 directory)"
            )
        self._segment_store = store
        store.attach(self._db, self._features)

    @guarded_by("_serving_lock", mode="write")
    def maybe_flush_segments(self) -> bool:
        """Flush the memtables iff the buffered-op threshold tripped."""
        store = self._segment_store
        if store is None or not store.should_flush():
            return False
        return store.flush()

    @guarded_by("_serving_lock", mode="write")
    def flush_segments(self) -> bool:
        """Unconditionally persist buffered maintenance (delta + manifest)."""
        store = self._segment_store
        if store is None:
            return False
        return store.flush()

    def needs_compaction(self) -> bool:
        """True when enough delta segments accumulated to fold."""
        store = self._segment_store
        return store is not None and store.needs_compaction()

    @guarded_by("_serving_lock", mode="read")
    def prepare_compaction(self) -> Optional["CompactionPlan"]:
        """Stage the fully merged segment in a temp file (read-only).

        Safe under the engine's *read* lock — the expensive merge runs
        concurrently with queries, mirroring how ``rebuild`` keeps the
        build outside the writer lock.  Returns None when the index is
        not segment-backed or there is nothing to fold.
        """
        store = self._segment_store
        if store is None:
            return None
        return store.prepare_compaction()

    @guarded_by("_serving_lock", mode="write")
    def commit_compaction(self, plan: "CompactionPlan") -> None:
        """Publish a staged compaction (write lock held by the engine)."""
        store = self._segment_store
        if store is None:
            raise IndexError_("index is not segment-backed")
        store.commit_compaction(plan)
