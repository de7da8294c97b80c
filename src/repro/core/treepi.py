"""The TreePi index — the paper's primary contribution, end to end.

``TreePiIndex.build`` runs database preprocessing (Section 4): frequent
subtree mining under σ(s), γ-shrinking, feature materialization with
exact support sets, and a dictionary from canonical string to
feature (the paper's prefix-tree index, Section 4.2.2, is only ever asked
for exact keys, so a hash map answers every lookup).

``TreePiIndex.query`` is the serving pipeline: ``plan`` runs a
deterministic, level-wise enumeration of the query's indexed subtrees
(the feature subtree set SF_q of Section 5.1) with support-set filtering
after each level (Section 5.2.1), then ``run`` makes one prefiltered
monomorphism search per candidate
(:func:`~repro.graphs.isomorphism.is_subgraph_isomorphic`); ``run`` is
the one verification loop, which the serving engine shares.
``TreePiIndex.query_paper`` runs the paper's full Section 5 pipeline:
the randomized Feature-Tree-Partition ``RP(q)`` run δ times, Center
Distance Constraint pruning (Algorithm 2) and reconstruction-based
verification (Algorithm 3), with each feature's center locations in a
candidate found by search when first needed rather than stored.  Both
return exactly ``D_q = {g : q ⊆ g}``.

``insert`` / ``delete`` implement the Section 7.1 maintenance scheme:
support sets of existing features are updated in place (one existence
match per feature on insert), and the index advertises a rebuild once
churn passes one quarter of the build size.  ``insert`` matches first
and changes nothing until every match is done, so a failure while
matching leaves the index as it was.

Beyond the paper, the trees γ-shrinking drops are kept as exception
lists (:class:`~repro.core.feature.ShrunkTree`): a query that is one of
them is answered from the support bitmaps its plan intersects, minus
the tree's exceptions, without verification.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.contracts import ContractViolation, contracts_enabled
from repro.analysis.guards import guarded_by, hot_path
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.center_prune import CenterConstraintProblem, center_prune
from repro.core.feature import FeatureTree, IndexedTree, ShrunkTree, mined_centers
from repro.core.filtering import filter_candidates
from repro.core.lattice import FeatureLattice
from repro.core.partition import Partition, SubsetMemo, run_partitions
from repro.core.statistics import IndexStats, QueryResult
from repro.core.verification import VerificationStats, verify_candidate
from repro.exceptions import BudgetExceeded, GraphError, IndexError_
from repro.graphs.distances import DistanceOracle
from repro.graphs.graph import Edge, GraphDatabase, LabeledGraph
from repro.graphs.isomorphism import (
    CompiledPattern,
    is_subgraph_isomorphic,
    label_pair_refuted,
    subgraph_monomorphisms,
)
from repro.mining.shrink import shrink_feature_set, shrunk_covers
from repro.mining.subtree_miner import FrequentSubtreeMiner
from repro.mining.support import SupportFunction
from repro.storage import SlotTable, popcount
from repro.trees.canonical import SubsetCanonicalizer, SubsetForm
from repro.trees.center import tree_center

if TYPE_CHECKING:
    from repro.storage.segments import CompactionPlan, SegmentStore

#: Per-graph distance-check cap of :meth:`TreePiIndex.query_paper`'s
#: center prune; a graph whose check runs out is kept (still sound).
CENTER_PRUNE_CHECKS = 2000


#: The serving planner visits at most this many edge subsets per query
#: edge, then filters on the keys found so far (sound: fewer keys only
#: loosen the filter).  Workload queries need about 30 per edge; at
#: η = 5 a single-label K8 would need about 1,600.
SUBSETS_PER_EDGE = 64

#: One subset of the enumeration: (edge mask, vertex mask, vertices,
#: canonical key, canonical positions of the vertices).
_Subset = Tuple[int, int, Tuple[int, ...], str, Tuple[int, ...]]

#: What a memo lookup returns for a step it has not seen.
_UNSEEN = object()


def _mask_edges(mask: int, edges: List[Edge]) -> List[Edge]:
    """The edges whose bits are set in ``mask``."""
    return [edge for i, edge in enumerate(edges) if mask >> i & 1]


def _subtree_levels(
    query: LabeledGraph,
    max_size: int,
    lattice: FeatureLattice,
    canon: SubsetCanonicalizer,
    limit: Optional[int] = None,
) -> Iterator[List[str]]:
    """Canonical keys of the query's subtrees, one list per size ``1..max_size``.

    Level 1 holds one key per query edge, in ``query.edges()`` order.
    Level ``k`` holds the distinct keys of the connected acyclic
    ``k``-edge subsets, grown breadth-first: each ``k-1``-edge subset
    gains one edge to a vertex it does not touch yet (an edge between two
    touched vertices would close a cycle), so every subset grown is a
    tree and is visited once.

    Each step is looked up in ``lattice``'s grow memo (a level-1 subset
    grows from the edge's first vertex); a miss canonicalizes the subset
    once through ``canon``, the query's canonicalizer, and remembers the
    step.  A subset whose key is not in ``lattice.keys`` is not grown
    further, and a child that is neither in ``keys`` nor indexed adds no
    key, so a level lists exactly the keys in ``keys`` or indexed.

    ``limit`` caps how many subsets get visited; level 1 always
    completes, and a later level the cap cuts short is yielded partial
    and ends the enumeration.
    """
    look = lattice.memo.get
    grow = lattice.grow
    checking = contracts_enabled()
    root, child = canon.root_tokens, canon.child_tokens
    # vertex -> (neighbor's vertex bit, edge bit, neighbor, neighbor's token)
    incident: Dict[int, List[Tuple[int, int, int, str]]] = {}
    edge_list: List[Edge] = []
    frontier: List[_Subset] = []
    singles: List[str] = []
    for i, (u, v, _) in enumerate(query.edges()):
        edge, bit = (u, v), 1 << i
        edge_list.append(edge)
        incident.setdefault(u, []).append((1 << v, bit, v, child[v][u]))
        incident.setdefault(v, []).append((1 << u, bit, u, child[u][v]))
        step = (root[u], 0, child[v][u])
        found = look(step, _UNSEEN)
        if found is _UNSEEN:
            found = grow(step, canon, (edge,), (u,), (0,), v)
        elif checking:
            lattice.check_hit(query, canon, (edge,), (u, v), (0,), found)
        assert found is not None, "a level-1 step keeps its key"
        key, remap = found
        singles.append(key)
        if remap is not None:
            frontier.append((bit, (1 << u) | (1 << v), (u, v), key, remap))
    yield singles
    spent = len(singles)
    size = 1
    while frontier and size < max_size:
        keys: Dict[str, None] = {}
        seen: Set[int] = set()
        grown: List[_Subset] = []
        last = size + 1 == max_size
        for mask, vmask, verts, key, positions in frontier:
            # The child's positions: the remap taken at the parent's
            # positions, then at the new vertex's slot.
            take = itemgetter(*positions, len(positions))
            for u, at in zip(verts, positions):
                for vbit, bit, v, token in incident[u]:
                    if vmask & vbit:
                        continue
                    extended = mask | bit
                    if extended in seen:
                        continue
                    if spent == limit:
                        yield list(keys)
                        return
                    spent += 1
                    seen.add(extended)
                    step = (key, at, token)
                    found = look(step, _UNSEEN)
                    if found is _UNSEEN:
                        found = grow(
                            step,
                            canon,
                            _mask_edges(extended, edge_list),
                            verts,
                            positions,
                            v,
                        )
                    elif checking:
                        lattice.check_hit(
                            query,
                            canon,
                            _mask_edges(extended, edge_list),
                            verts + (v,),
                            positions,
                            found,
                        )
                    if found is None:
                        continue
                    keys[found[0]] = None
                    remap = found[1]
                    if remap is None or last:
                        continue
                    grown.append((
                        extended,
                        vmask | vbit,
                        verts + (v,),
                        found[0],
                        take(remap),
                    ))
        yield list(keys)
        frontier = grown
        size += 1


def _check_query(query: LabeledGraph) -> None:
    if query.num_edges == 0:
        raise GraphError("query graphs must have at least one edge")
    if not query.is_connected():
        raise GraphError("query graphs must be connected")


@dataclass(frozen=True)
class TreePiConfig:
    """Build/query knobs (paper defaults in Section 6.1 commentary).

    * ``support`` — the σ(s) function (α, β, η),
    * ``gamma``   — shrinking parameter γ ∈ [1, 3],
    * ``delta``   — partition restarts δ of :meth:`TreePiIndex.
      query_paper`'s ``RP(q)``; ``None`` uses |E(q)| per query (serving
      enumerates SF_q deterministically and never partitions),
    * ``paths_only`` — restrict features to *path-shaped* trees.  This
      degrades TreePi into a GraphGrep-flavored index inside the same
      framework; the A4 ablation uses it to measure what branching tree
      features buy over paths (the paper's Section 1 argument),
    * ``matcher_prefilters`` — use the cached per-graph label-pair /
      neighboring-label-signature structures (:mod:`repro.graphs.
      matcher_index`) to refute candidates in verification (and in
      ``query_paper``'s center pruning) before any backtracking.  Answer
      sets are identical either way (every filter is a necessary
      condition — the differential suites pin this); ``False`` restores
      the unfiltered matcher, whose worst-case cost the deadline tests
      and adversarial benchmarks rely on.  A runtime performance knob:
      it cannot change what gets built or answered, so it is
      deliberately excluded from persistence,
    * ``seed``    — RNG seed for ``query_paper``'s randomized partition.
    """

    support: SupportFunction
    gamma: float = 1.5
    delta: Optional[int] = None
    paths_only: bool = False
    matcher_prefilters: bool = True
    seed: int = 2007


@dataclass
class QueryPlan:
    """The state of one query after partition / filter.

    ``result`` is set when the pipeline short-circuited (direct hit,
    provably empty answer); otherwise ``survivors`` lists the candidate
    graph ids still awaiting :meth:`TreePiIndex.verify`.  Only the
    paper's planner partitions: there ``partition`` is TP_q, which
    :meth:`TreePiIndex.query_paper` builds its center constraints on;
    serving plans leave it ``None`` with ``partition_size`` 0.
    """

    query: LabeledGraph
    result: Optional[QueryResult] = None
    survivors: List[int] = field(default_factory=list)
    partition: Optional[Partition] = None
    partition_size: int = 0
    sfq_size: int = 0
    candidates_after_filter: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: The query compiled for the matcher, built by the first
    #: :meth:`TreePiIndex.verify` whose candidate survives label-pair
    #: refutation and reused for every later candidate of this plan.
    compiled: Optional[CompiledPattern] = field(
        default=None, repr=False, compare=False
    )


class TreePiIndex:
    """A built TreePi index over one :class:`GraphDatabase`."""

    def __init__(
        self,
        database: GraphDatabase,
        config: TreePiConfig,
        features: List[FeatureTree],
        stats: IndexStats,
        shrunk: Sequence[ShrunkTree] = (),
    ) -> None:
        self._db = database
        self._config = config
        self._features = features
        self._lookup: Dict[str, FeatureTree] = {f.key: f for f in features}
        self._shrunk = list(shrunk)
        self._shrunk_by_key = {t.key: t for t in self._shrunk}
        self._lattice = FeatureLattice(features, self._lookup)
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
        # Dense graph slots, built by the first query (slot_table); every
        # tree's support bitmap numbers its bits by them.
        self._slots: Optional[SlotTable] = None
        # Set by attach_segment_store for v3 (mmap-backed) indexes:
        # maintenance then buffers into memtables/tombstones instead of
        # advertising rebuilds, and flushes/compacts through the store.
        self._segment_store: Optional["SegmentStore"] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, database: GraphDatabase, config: TreePiConfig) -> "TreePiIndex":
        """Database preprocessing: mine, shrink, materialize features.

        Mining is exact, so every feature's support set is its true
        ``D_t``, and every shrunk tree with a cover (:func:`~repro.mining.
        shrink.shrunk_covers`) over the final feature set keeps its
        exception list.
        """
        if len(database) == 0:
            raise IndexError_("cannot build an index over an empty database")
        start = time.perf_counter()
        mined = FrequentSubtreeMiner(database, config.support).mine()
        shrink = shrink_feature_set(mined.patterns, config.gamma)
        kept = list(shrink.kept.values())
        if config.paths_only:
            kept = [
                p for p in kept
                if all(p.graph.degree(v) <= 2 for v in p.graph.vertices())
            ]
        features = [
            FeatureTree.from_mined_pattern(fid, pattern)
            for fid, pattern in enumerate(kept)
        ]
        by_key = {f.key: f for f in features}
        shrunk = [
            ShrunkTree.from_mined_pattern(
                mined.patterns[key], [by_key[k] for k in cover]
            )
            for key, cover in sorted(shrunk_covers(shrink, by_key).items())
        ]
        by_size: Dict[int, int] = {}
        for f in features:
            by_size[f.size] = by_size.get(f.size, 0) + 1
        stats = IndexStats(
            num_features=len(features),
            features_by_size=by_size,
            total_center_locations=sum(
                len(centers)
                for pattern in kept
                for centers in mined_centers(pattern).values()
            ),
            build_seconds=time.perf_counter() - start,
            mining=mined.stats,
            shrink_removed=shrink.removed_count,
        )
        return cls(database, config, features, stats, shrunk)

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

    @property
    def shrunk(self) -> List[ShrunkTree]:
        """The exception lists of the γ-shrunk trees, in key order."""
        return list(self._shrunk)

    def storage_bytes(self) -> int:
        """Resident bytes of the columnar support storage.

        Counts the support column of every feature and every shrunk
        tree's exception list — the part of the index the storage layer
        owns (graphs, the key map and stats live elsewhere).
        """
        return sum(f.store.nbytes() for f in self._features) + sum(
            t.store.nbytes() for t in self._shrunk
        )

    def slot_table(self) -> SlotTable:
        """The graph slots every tree's support bitmap is built over.

        Built on first use from the live graph ids.  Racing readers may
        each build one; the tables are equal and each query keeps the
        one it read, so either write is fine.
        """
        slots = self._slots
        if slots is None:
            slots = self._slots = SlotTable(self._db.graph_ids())
        return slots

    @property
    def lattice(self) -> FeatureLattice:
        return self._lattice

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
        return self.run(self.plan(query, token=token), token=token)

    @hot_path
    def run(
        self, plan: "QueryPlan", token: Optional[CancellationToken] = None
    ) -> QueryResult:
        """Verify ``plan``'s survivors and assemble its result.

        The one verification loop: :meth:`query` and
        :meth:`~repro.core.engine.QueryEngine.query` both end here.  A
        plan that already carries a ``result`` returns it unchanged.  A
        candidate cut short by the budget
        (:class:`~repro.exceptions.BudgetExceeded`) is marked unresolved,
        neither matched nor rejected; any other error propagates.
        """
        if plan.result is not None:
            return plan.result
        t0 = time.perf_counter()
        matches: Set[int] = set()
        unresolved: List[int] = []
        for gid in plan.survivors:
            try:
                if self.verify(plan, gid, token=token):
                    matches.add(gid)
            except BudgetExceeded:
                unresolved.append(gid)  # neither matched nor rejected
        return self.finish(
            plan,
            frozenset(matches),
            time.perf_counter() - t0,
            unresolved=unresolved,
            degraded_reason=token.reason if token is not None else None,
        )

    @hot_path
    def plan(
        self, query: LabeledGraph, token: Optional[CancellationToken] = None
    ) -> "QueryPlan":
        """Gather SF_q and filter, stopping short of verification.

        Returns a :class:`QueryPlan`; when the pipeline can already prove
        the answer (direct feature hit, shrunk-tree hit, missing single
        edge, empty filter intersection) the plan carries a final
        ``result`` and an empty survivor list, otherwise :meth:`run`
        verifies the survivors.

        SF_q is every indexed subtree of the query up to η edges, found
        level by level (:func:`_subtree_levels`); after each level the
        support bitmaps of its indexed keys are ANDed into the candidates
        (:meth:`~repro.core.feature.IndexedTree.bitmap`), which reach
        verification in ascending graph-id order.
        The enumeration stops once at most one candidate remains (one
        prefiltered match decides it), after level η, after
        :data:`SUBSETS_PER_EDGE` subsets per query edge, or when
        ``token`` expires (polled after every level; the candidates so
        far go to verification, which reports them unresolved).  Every
        stop is sound: fewer keys only loosen the filter.

        A query that is a γ-shrunk tree ``t`` runs the same enumeration.
        Once every level below ``|q|`` is intersected, the candidates are
        ``I(t)``, and ``I(t) & ~E(t)`` is the exact answer
        (:class:`~repro.core.feature.ShrunkTree`).  An enumeration that
        stopped earlier leaves a superset of ``I(t)``, which goes to
        verification as usual.
        """
        _check_query(query)
        phases: Dict[str, float] = {}
        t0 = time.perf_counter()
        eta = self._config.support.eta
        limit = SUBSETS_PER_EDGE * query.num_edges
        canon = SubsetCanonicalizer(query)
        shrunk: Optional[ShrunkTree] = None
        # Only a query of at most η edges can itself be a feature.
        if query.num_edges <= eta:
            whole = canon.form(tuple((u, v) for u, v, _ in query.edges()))
            hit = self._direct_hit(query, whole, phases, t0)
            if hit is not None:
                return hit
            # A tree of m edges has at most 2^m − 1 connected edge
            # subsets; below the cap, the cap cannot cut its enumeration.
            if whole is not None and (1 << query.num_edges) - 1 <= limit:
                shrunk = self._shrunk_by_key.get(whole[0])

        lookup = self._lookup
        slots = self.slot_table()
        sfq: Dict[str, None] = {}
        candidates = -1  # every slot; level 1 always narrows it
        level = 0
        for level, keys in enumerate(
            _subtree_levels(query, eta, self._lattice, canon, limit=limit), 1
        ):
            # Every single edge of the query must be an indexed feature
            # (σ(1)=1 and size-1 trees are never shrunk); a miss proves
            # D_q is empty.
            if level == 1 and any(k not in lookup for k in keys):
                phases["partition"] = time.perf_counter() - t0
                return QueryPlan(
                    query=query,
                    result=QueryResult(
                        matches=frozenset(), phase_seconds=phases
                    ),
                )
            for key in keys:
                if key in lookup and key not in sfq:
                    sfq[key] = None
                    candidates &= lookup[key].bitmap(slots)
            # At most one candidate left: one prefiltered match decides it.
            if not candidates & (candidates - 1) or (
                token is not None and token.expired_now()
            ):
                break
        else:
            level = eta  # every level with an indexed key was intersected
        assert candidates >= 0, "level 1 always yields"
        # Filtering is interleaved with the enumeration, so one phase
        # covers both.
        phases["partition"] = time.perf_counter() - t0
        plan = QueryPlan(
            query=query,
            sfq_size=len(sfq),
            candidates_after_filter=popcount(candidates),
            phase_seconds=phases,
        )
        if not candidates:
            plan.result = QueryResult(
                matches=frozenset(),
                sfq_size=plan.sfq_size,
                phase_seconds=phases,
            )
        elif shrunk is not None and level >= query.num_edges - 1:
            matches = slots.decode(candidates & ~shrunk.bitmap(slots))
            plan.result = QueryResult(
                matches=frozenset(matches),
                direct_hit=True,
                sfq_size=plan.sfq_size,
                candidates_after_filter=plan.candidates_after_filter,
                candidates_after_prune=len(matches),
                phase_seconds=phases,
            )
        else:
            plan.survivors = slots.decode(candidates)
        return plan

    def _direct_hit(
        self,
        query: LabeledGraph,
        whole: Optional[SubsetForm],
        phases: Dict[str, float],
        t0: float,
    ) -> Optional["QueryPlan"]:
        """The final plan when the query itself is an indexed feature tree.

        ``whole`` is the query's own canonical form (None when it is not
        a tree).  An indexed feature's support bitmap is its exact answer,
        so no filtering or verification is needed.
        """
        feature = self._lookup.get(whole[0]) if whole is not None else None
        if feature is None:
            return None
        phases["lookup"] = time.perf_counter() - t0
        slots = self.slot_table()
        support = frozenset(slots.decode(feature.bitmap(slots)))
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

    def _plan_paper(self, query: LabeledGraph) -> "QueryPlan":
        """The paper's planner: ``RP(q)`` run δ times, then Algorithm 1.

        Filters first on the query's indexed subtrees of up to
        ``max(3, α)`` edges, found through the index's lattice
        (:func:`_subtree_levels`, stage 1), then runs the
        randomized Feature-Tree-Partition δ times (fewer when stage 1
        already leaves at most 8 candidates) for TP_q and the rest of
        SF_q.  :meth:`query_paper` builds its center constraints on TP_q.
        """
        _check_query(query)
        phases: Dict[str, float] = {}
        t0 = time.perf_counter()
        memo = SubsetMemo(query)
        whole = memo[frozenset((u, v) for u, v, _ in query.edges())]
        hit = self._direct_hit(query, whole, phases, t0)
        if hit is not None:
            return hit

        # Stage 1 takes SF_q's keys up to max(3, α) edges from the
        # index's own lattice, even when α < 3: the lookups buy the same
        # filter power gIndex gets from its exhaustive ≤3-edge
        # enumeration.  Every single edge must be indexed; a miss proves
        # D_q empty.
        levels = _subtree_levels(
            query,
            max(3, self._config.support.alpha),
            self._lattice,
            memo.canon,
        )
        single_edge_keys = next(levels)
        if any(key not in self._lookup for key in single_edge_keys):
            phases["partition"] = time.perf_counter() - t0
            return QueryPlan(
                query=query,
                result=QueryResult(matches=frozenset(), phase_seconds=phases),
            )

        # The ``P_q ← D`` initializer handed to Algorithm 1 is the
        # intersection of the stage-1 support bitmaps, which bounds it
        # without ever copying the database id set; when it already
        # leaves only a handful of candidates, SF_q diversity buys
        # nothing and TP_q needs only a few restarts.
        slots = self.slot_table()
        stage1 = -1  # every slot; the single edges always narrow it
        for key in single_edge_keys:
            stage1 &= self._lookup[key].bitmap(slots)
        for level in levels:
            for key in level:
                if key in self._lookup:
                    stage1 &= self._lookup[key].bitmap(slots)

        rng = random.Random(self._config.seed)
        delta = self._config.delta or max(1, query.num_edges)
        if popcount(stage1) <= 8:
            delta = min(delta, 3)
        run = run_partitions(query, self._lookup.__contains__, delta, rng, memo)
        phases["partition"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        outcome = filter_candidates(
            stage1, run.feature_subtrees.values(), self._lookup, slots
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

        return QueryPlan(
            query=query,
            survivors=sorted(outcome.candidates),
            partition=run.best,
            partition_size=run.best.size,
            sfq_size=run.sfq_size,
            candidates_after_filter=len(outcome.candidates),
            phase_seconds=phases,
        )

    @hot_path
    def verify(
        self,
        plan: "QueryPlan",
        gid: int,
        token: Optional[CancellationToken] = None,
    ) -> bool:
        """Exactly test one surviving candidate of ``plan``.

        One prefiltered monomorphism search (label-pair index, neighbour-
        label signatures, walk parity; see :mod:`repro.graphs.
        matcher_index`) with the plan's :attr:`QueryPlan.compiled`
        pattern, so the query's tables are built once per plan, not once
        per candidate.  Safe to call concurrently from several threads
        for distinct candidates of the same plan.  With a ``token``, an
        expired budget unwinds the search with
        :class:`~repro.exceptions.BudgetExceeded` — the candidate is then
        *unresolved*, never silently matched or rejected.  The token is
        polled before the search starts, so no candidate is verified
        after expiry, however quickly its search would finish.
        """
        if token is not None:
            token.poll()
        target = self._db[gid]
        prefilter = self._config.matcher_prefilters
        compiled = plan.compiled
        if compiled is None:
            # Refute before compiling: a plan whose candidates all fail
            # the label-pair check never builds the tables.  Racing
            # threads may each compile; either write is fine.
            if label_pair_refuted(plan.query, target, prefilter):
                return False
            compiled = plan.compiled = CompiledPattern(plan.query)
        return is_subgraph_isomorphic(
            plan.query, target, token=token, prefilter=prefilter, compiled=compiled
        )

    def query_paper(self, query: LabeledGraph) -> QueryResult:
        """The paper's Section 5 pipeline: Algorithms 1, 2 and 3 in turn.

        Plans with ``RP(q)`` and Algorithm 1 (:meth:`_plan_paper`), then
        Center Distance Constraint pruning (Algorithm 2, at most
        :data:`CENTER_PRUNE_CHECKS` distance checks per graph; a graph
        that runs out is kept) and reconstruction-based verification of
        every survivor (Algorithm 3).  Both read a piece's center
        locations in a candidate from the query's
        :class:`~repro.core.center_prune.CenterConstraintProblem`, which
        finds them by search once per (feature, candidate) pair; the index
        stores none.  The answer equals :meth:`query`'s;
        ``candidates_after_prune`` is P'_q and ``prune_exhausted`` counts
        the survivors kept by the check cap.  Unbudgeted: the figures and
        ablations that call it measure the algorithm, not a service.
        """
        plan = self._plan_paper(query)
        if plan.result is not None:
            return plan.result
        assert plan.partition is not None
        prefilter = self._config.matcher_prefilters
        t0 = time.perf_counter()
        problem = CenterConstraintProblem.from_partition(
            query, plan.partition, self._lookup
        )
        report = center_prune(
            problem,
            plan.survivors,
            {gid: self._db[gid] for gid in plan.survivors},
            oracles=self._oracles,
            budget_per_graph=CENTER_PRUNE_CHECKS,
            query=query if prefilter else None,
        )
        plan.survivors = report.survivors
        plan.phase_seconds["center_prune"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        vstats = VerificationStats()
        matches = frozenset(
            gid
            for gid in report.survivors
            if verify_candidate(
                query,
                problem,
                self._db[gid],
                gid,
                vstats,
                oracle=self._oracles.setdefault(
                    gid, DistanceOracle(self._db[gid])
                ),
                prefilter=prefilter,
            )
        )
        result = self.finish(plan, matches, time.perf_counter() - t0)
        result.verification = vstats
        result.prune_exhausted = report.exhausted
        return result

    def finish(
        self,
        plan: "QueryPlan",
        matches: frozenset,
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
            complete=not unresolved,
            unresolved=frozenset(unresolved),
            degraded_reason=degraded_reason if unresolved else None,
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
        """Add a graph: update support sets in place.

        ``graph_id`` may pin a specific unused database id, e.g. to keep
        the id a graph already has in another database; by default the
        database allocates the next free id.  A negative id or one in use
        is refused before any matching.

        Matching comes first and changes nothing, so a failure in it
        leaves the index as it was.  Edge types never seen before become
        fresh single-edge features — the completeness floor (σ(1)=1, every
        database edge indexed) must survive maintenance, otherwise the
        missing-edge emptiness proof in :meth:`query` would turn false.
        By induction no earlier graph can contain a type that was absent
        from the lookup.

        Every other feature is matched against the new graph once,
        stopping at the first embedding: only existence joins a support
        set.  The matcher's label-pair refutation rejects a feature whose
        labels the graph lacks before any search, so no apriori pruning
        is needed.  A tree compiles its matcher tables on its first
        unrefuted match and keeps them.  The graph lies in ``I(t)`` of a
        shrunk tree ``t`` exactly when every feature of its cover occurs;
        each such ``t`` is matched once, and the graph joins ``E(t)``
        when ``t`` is absent.

        Then the commit: the graph joins the database and takes the
        lowest free slot, the fresh features are registered, and each
        tree the graph joins adds it to its column and its bitmap.
        """
        if graph_id is not None:
            if graph_id < 0:
                raise GraphError(f"graph ids are non-negative, got {graph_id}")
            if graph_id in self._db:
                raise GraphError(f"graph id {graph_id} already in use")
        canon = SubsetCanonicalizer(graph)
        fresh: Dict[str, FeatureTree] = {}
        for u, v, elabel in graph.edges():
            form = canon.form(((u, v),))
            assert form is not None, "a single edge is a tree"
            key = form[0]
            if key not in self._lookup and key not in fresh:
                probe = LabeledGraph(
                    [graph.vertex_label(u), graph.vertex_label(v)], [(0, 1, elabel)]
                )
                fresh[key] = FeatureTree(
                    feature_id=len(self._features) + len(fresh),
                    tree=probe,
                    key=key,
                    center=tree_center(probe),
                )
        joins: List[IndexedTree] = list(fresh.values())
        present: Set[int] = set()
        for feature in self._features:
            if label_pair_refuted(feature.tree, graph):
                continue
            if any(
                subgraph_monomorphisms(
                    feature.tree, graph, limit=1, compiled=feature.compiled()
                )
            ):
                joins.append(feature)
                present.add(feature.feature_id)
        for shrunk in self._shrunk:
            if not present.issuperset(shrunk.cover):
                continue
            if label_pair_refuted(shrunk.tree, graph) or not any(
                subgraph_monomorphisms(
                    shrunk.tree, graph, limit=1, compiled=shrunk.compiled()
                )
            ):
                joins.append(shrunk)

        gid = self._db.add(graph, graph_id=graph_id)
        bit = self._slots.claim(gid) if self._slots is not None else 0
        for feature in fresh.values():
            if self._segment_store is not None:
                self._segment_store.adopt_feature(feature)
            self._features.append(feature)
            self._lookup[feature.key] = feature
        for tree in joins:
            tree.add_graph(gid, bit)
        self._churn += 1
        if self._segment_store is not None:
            self._segment_store.note_write()
        return gid

    @guarded_by("_serving_lock", mode="write")
    def delete(self, graph_id: int) -> None:
        """Remove a graph and purge it from every feature and exception list.

        Every tree drops the id and its slot's bit, if the slot table is
        built, in one pass.
        """
        self._db.remove(graph_id)
        bit = self._slots.release(graph_id) if self._slots is not None else 0
        for tree in chain(self._features, self._shrunk):
            tree.remove_graph(graph_id, bit)
        self._oracles.pop(graph_id, None)
        self._churn += 1
        if self._segment_store is not None:
            self._segment_store.note_write()

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

        Hands the store the live database, the index's *own* feature
        list (so features materialized by later inserts participate in
        flushes) and the exception lists, after which ``insert``/``delete``
        become memtable/tombstone appends and ``needs_rebuild`` stays
        False forever.
        """
        from repro.storage.segments import SegmentGraphDatabase

        if not isinstance(self._db, SegmentGraphDatabase):
            raise IndexError_(
                "attach_segment_store requires a SegmentGraphDatabase-"
                "backed index (load it with load_index on a v3 directory)"
            )
        self._segment_store = store
        store.attach(self._db, self._features, self._shrunk)

    @guarded_by("_serving_lock", mode="write")
    def maybe_flush_segments(self) -> bool:
        """Flush the memtables iff the buffered-op threshold tripped."""
        store = self._segment_store
        if store is None or not store.should_flush():
            return False
        return self.flush_segments()

    @guarded_by("_serving_lock", mode="write")
    def flush_segments(self) -> bool:
        """Unconditionally persist buffered maintenance (delta + manifest)."""
        store = self._segment_store
        if store is None:
            return False
        wrote = store.flush()
        if contracts_enabled():
            self.check_bitmaps()
        return wrote

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
        if contracts_enabled():
            self.check_bitmaps()

    def check_bitmaps(self) -> None:
        """Raise :class:`~repro.analysis.contracts.ContractViolation`
        unless every built bitmap decodes to its tree's column; flush and
        compaction run it under ``REPRO_CONTRACTS=1``."""
        slots = self._slots
        if slots is None:
            return
        for tree in chain(self._features, self._shrunk):
            bits = tree.cached_bitmap
            if bits is not None and tree.store.graph_ids() != frozenset(
                slots.decode(bits)
            ):
                raise ContractViolation(
                    f"support bitmap of {tree!r} disagrees with its column"
                )
