"""Center Distance Constraint pruning (Section 5.2.2, Algorithm 2).

If ``q ⊆ g`` via an embedding ``f``, every piece of a Feature-Tree-
Partition of ``q`` embeds into ``g`` centered at ``f(center)``, and since
embeddings never stretch distances, the center-to-center distance of any
two pieces inside ``g`` is **at most** their distance inside ``q``:

    d_q(center(tp_i), center(tp_j)) >= d_g(center(tp'_i), center(tp'_j)).

A candidate graph survives only if some assignment of center locations
— one per piece of ``TP_q`` — satisfies every pairwise constraint.  This
is the paper's novelty: arbitrary subgraph features have no unique
center, so gIndex cannot prune this way.

The paper reads the locations from the index.  This index stores support
ids only, so :meth:`CenterConstraintProblem.centers` finds a feature's
locations in a candidate by search, once per query, and both Algorithm 2
and Algorithm 3 read them from that memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.guards import hot_path
from repro.core.feature import FeatureTree
from repro.exceptions import ConfigError
from repro.core.partition import Partition, QueryPiece
from repro.graphs.distances import DistanceOracle
from repro.graphs.graph import LabeledGraph
from repro.graphs.matcher_index import pair_subsumed
from repro.trees.center import Center


@dataclass
class CenterConstraintProblem:
    """The query-side half of the constraint check, computed once per query.

    ``distances[i][j]`` is the center distance between pieces ``i`` and
    ``j`` measured inside the query graph.  The problem also memoizes,
    for the query's lifetime, each feature's center locations per
    candidate graph (:meth:`centers`).
    """

    pieces: List[QueryPiece]
    features: List[FeatureTree]
    distances: List[List[float]]
    _located: Dict[Tuple[int, int], Tuple[Center, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def centers(
        self, i: int, graph_id: int, graph: LabeledGraph
    ) -> Tuple[Center, ...]:
        """Sorted center locations of piece ``i``'s feature in ``graph``.

        Found by :meth:`~repro.core.feature.FeatureTree.locate_centers` on
        first use and kept for the rest of the query, so center pruning
        and verification of one candidate search once per feature.
        """
        feature = self.features[i]
        key = (feature.feature_id, graph_id)
        located = self._located.get(key)
        if located is None:
            located = self._located[key] = tuple(
                sorted(feature.locate_centers(graph))
            )
        return located

    @classmethod
    def from_partition(
        cls,
        query: LabeledGraph,
        partition: Partition,
        lookup: Dict[str, FeatureTree],
    ) -> "CenterConstraintProblem":
        pieces = list(partition.pieces)
        features = [lookup[p.key] for p in pieces]
        oracle = DistanceOracle(query)
        m = len(pieces)
        distances = [[0.0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                d = oracle.set_distance(
                    pieces[i].center_in_query, pieces[j].center_in_query
                )
                distances[i][j] = distances[j][i] = d
        return cls(pieces=pieces, features=features, distances=distances)


@dataclass(frozen=True)
class PruneDecision:
    """The explicit outcome of one per-graph center-constraint test.

    ``keep`` is the pruning decision (``True`` = the graph survives into
    ``P'_q``); ``exhausted`` records *why* a kept graph was kept: a
    refuted graph (``keep=False``) was proven to admit no assignment, a
    satisfied graph (``keep=True, exhausted=False``) was proven to admit
    one, and an exhausted graph (``keep=True, exhausted=True``) ran out
    of budget before either proof and is kept because giving up pruning
    is sound.  The pre-fix code collapsed the last two (and its terminal
    ``checks > budget`` return was unreachable), so callers could not
    tell a real survivor from a budget timeout.
    """

    keep: bool
    exhausted: bool = False
    checks: int = 0  # distance checks actually spent


@hot_path
def check_center_constraints(
    problem: CenterConstraintProblem,
    graph: LabeledGraph,
    graph_id: int,
    oracle: Optional[DistanceOracle] = None,
    budget: Optional[int] = None,
    query: Optional[LabeledGraph] = None,
) -> PruneDecision:
    """Algorithm 2's per-graph test, with an explicit three-way outcome.

    ``budget`` caps the number of pairwise distance checks (``None`` =
    unbounded; ``0`` = no checks allowed, so any graph that would need
    one is immediately *exhausted* and kept; negative values raise
    :class:`~repro.exceptions.ConfigError`).  An exhausted graph is
    kept, so pruning never loses soundness.  A graph missing some
    feature outright is refuted for free, before any budget is spent.

    ``query`` (optional) enables the cached label-pair refutation: a
    query whose (vertex-label, edge-label, vertex-label) incidence
    multiset is not contained in the graph's cannot embed, so the graph
    is *refuted* — an exact proof, budget-free, before any distance
    check.  The survivor set only shrinks; answer sets are unchanged
    (filters tighten, answers never change).
    """
    if budget is not None and budget < 0:
        raise ConfigError(f"center-prune budget must be >= 0 or None, got {budget}")
    if query is not None and not pair_subsumed(
        query.matcher_index(), graph.matcher_index()
    ):
        return PruneDecision(keep=False)
    if oracle is None:
        oracle = DistanceOracle(graph)
    m = len(problem.pieces)
    location_lists: List[Sequence[Center]] = []
    for i in range(m):
        centers = problem.centers(i, graph_id, graph)
        if not centers:
            return PruneDecision(keep=False)
        location_lists.append(centers)
    order = sorted(range(m), key=lambda i: len(location_lists[i]))
    assignment: List[Optional[Center]] = [None] * m
    checks = 0
    exhausted = False

    def backtrack(pos: int) -> bool:
        """True = a full assignment exists *or* the budget ran out."""
        nonlocal checks, exhausted
        if pos == m:
            return True
        i = order[pos]
        earlier = order[:pos]
        for center in location_lists[i]:
            ok = True
            for prev in earlier:
                if budget is not None and checks >= budget:
                    exhausted = True
                    return True  # give up pruning: keep the graph
                checks += 1
                if oracle.set_distance(center, assignment[prev]) > (
                    problem.distances[i][prev]
                ):
                    ok = False
                    break
            if ok:
                assignment[i] = center
                if backtrack(pos + 1):
                    return True
                assignment[i] = None
        # Every center of this piece was refuted within budget.
        return False

    keep = backtrack(0)
    return PruneDecision(keep=keep, exhausted=exhausted, checks=checks)


@dataclass
class PruneReport:
    """What Algorithm 2 did to one candidate set, exhaustion made visible.

    ``survivors`` is ``P'_q``; ``exhausted`` counts survivors kept only
    because their per-graph budget ran out before a proof either way,
    and ``refuted`` counts graphs actually pruned.
    """

    survivors: List[int] = field(default_factory=list)
    exhausted: int = 0
    refuted: int = 0


@hot_path
def center_prune(
    problem: CenterConstraintProblem,
    candidates: Sequence[int],
    graphs: Dict[int, LabeledGraph],
    oracles: Optional[Dict[int, DistanceOracle]] = None,
    budget_per_graph: Optional[int] = None,
    query: Optional[LabeledGraph] = None,
) -> PruneReport:
    """Algorithm 2: reduce the filtered set ``P_q`` to ``P'_q``.

    ``oracles`` optionally supplies/receives per-graph distance oracles so
    BFS levels persist across queries (the index owns this cache);
    ``budget_per_graph`` bounds per-graph pruning work (see
    :func:`check_center_constraints`), so a budgeted prune returns a
    superset of the exact ``P'_q``.  ``query`` (optional) adds the
    budget-free label-pair refutation per candidate.
    """
    report = PruneReport()
    for gid in candidates:
        graph = graphs[gid]
        oracle = None
        if oracles is not None:
            oracle = oracles.get(gid)
            if oracle is None:
                oracle = DistanceOracle(graph)
                oracles[gid] = oracle
        decision = check_center_constraints(
            problem,
            graph,
            gid,
            oracle,
            budget=budget_per_graph,
            query=query,
        )
        if decision.keep:
            report.survivors.append(gid)
            if decision.exhausted:
                report.exhausted += 1
        else:
            report.refuted += 1
    return report
