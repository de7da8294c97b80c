"""Reconstruction-based subgraph isomorphism (Section 5.3, Algorithm 3).

Given a candidate graph ``g`` that survived filtering and center pruning,
verification decides ``q ⊆ g`` by *reconstructing* the query from its
partition pieces instead of running a blind matcher.  Pieces are joined
one at a time in a connectivity-greedy order; for the current piece the
search

1. picks a **center location** consistent with the Center
   Distance Constraints against every already-placed piece (Algorithm 2's
   ``TP'_q`` enumeration, interleaved rather than materialized up front),
2. retrieves the piece's embeddings **anchored at that center** and seeded
   with the bindings of already-mapped shared query vertices (the paper's
   "depth first search ... rooted in the stored center vertices"),
3. extends the partial query mapping, rejecting vertex collisions, and
   recurses.

Failed partial states are memoized by ``(piece position, boundary
bindings, used vertices)`` — the canonical-reconstruction-form idea
(Section 5.3.1) specialized to anchored joins.  The key is exact: future
pieces only interact with a partial state through the bindings of query
vertices they touch (the boundary) and through injectivity (the used
set), so two states agreeing on both have identical completions.

The center locations come from the query's
:class:`~repro.core.center_prune.CenterConstraintProblem`, which finds a
feature's locations in a candidate by search once per query (the paper
stores them in the index).

Soundness: a successful reconstruction is literally an embedding of ``q``.
Completeness: any embedding of ``q`` restricts to center-anchored piece
embeddings whose centers are among the located ones and satisfy every
distance constraint, so the search space always contains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.guards import hot_path
from repro.core.center_prune import CenterConstraintProblem
from repro.graphs.distances import DistanceOracle
from repro.graphs.graph import LabeledGraph
from repro.graphs.isomorphism import subgraph_monomorphisms
from repro.graphs.matcher_index import pair_subsumed
from repro.trees.center import Center


@dataclass
class VerificationStats:
    """Work counters for one or more verification calls."""

    assignments_tried: int = 0            # center choices explored
    piece_embeddings_enumerated: int = 0  # anchored embeddings expanded
    memo_hits: int = 0


def _anchor_seeds(piece_center: Center, assigned: Center) -> List[Dict[int, int]]:
    """Seed mappings pinning the piece's center onto the assigned location.

    Vertex centers give one seed; edge centers give both orientations.
    """
    if len(piece_center) == 1:
        return [{piece_center[0]: assigned[0]}]
    a, b = piece_center
    x, y = assigned
    return [{a: x, b: y}, {a: y, b: x}]


def _piece_order(
    problem: CenterConstraintProblem,
    location_lists: List[Sequence[Center]],
) -> List[int]:
    """Piece order: scarcest-first start, then connectivity-greedy.

    The first piece has no overlap seeds, so its branching factor is the
    number of located centers — start from the piece with the fewest.
    Subsequent pieces maximize overlap with the covered region (strong
    seeds make their anchored searches nearly deterministic), breaking
    ties toward larger pieces.
    """
    pieces = problem.pieces
    m = len(pieces)
    remaining = set(range(m))
    vertex_sets = [set(p.to_query.values()) for p in pieces]
    order: List[int] = []
    covered: Set[int] = set()
    while remaining:
        if not order:
            best = min(
                remaining, key=lambda i: (len(location_lists[i]), -pieces[i].size, i)
            )
        else:
            best = max(
                remaining,
                key=lambda i: (len(vertex_sets[i] & covered), pieces[i].size, -i),
            )
        order.append(best)
        covered |= vertex_sets[best]
        remaining.discard(best)
    return order


@hot_path
def verify_candidate(
    query: LabeledGraph,
    problem: CenterConstraintProblem,
    graph: LabeledGraph,
    graph_id: int,
    stats: Optional[VerificationStats] = None,
    oracle: Optional[DistanceOracle] = None,
    prefilter: bool = True,
) -> bool:
    """Algorithm 3: is ``q ⊆ g``, reconstructing from anchored pieces?

    ``oracle`` optionally reuses a distance oracle (and its cached BFS
    levels) from the center-pruning pass or from previous queries.

    ``prefilter`` enables the cached label-pair refutation (a query
    whose label-pair incidence multiset exceeds the graph's cannot embed
    — an exact ``False``, no reconstruction needed) and is forwarded to
    the piece-embedding matcher.
    """
    if stats is None:
        stats = VerificationStats()
    if prefilter and not pair_subsumed(
        query.matcher_index(), graph.matcher_index()
    ):
        return False
    pieces = problem.pieces
    m = len(pieces)

    location_lists: List[Sequence[Center]] = []
    for i in range(m):
        centers = problem.centers(i, graph_id, graph)
        if not centers:
            return False
        location_lists.append(centers)

    order = _piece_order(problem, location_lists)
    if oracle is None:
        oracle = DistanceOracle(graph)

    # Query vertices still relevant from position pos onward.
    future_vertices: List[Set[int]] = [set() for _ in range(m + 1)]
    for pos in range(m - 1, -1, -1):
        future_vertices[pos] = future_vertices[pos + 1] | set(
            pieces[order[pos]].to_query.values()
        )

    failed: Set[Tuple] = set()

    def search(
        pos: int,
        qmap: Dict[int, int],
        used: frozenset,
        placed_centers: List[Tuple[int, Center]],  # (piece index, center in g)
    ) -> bool:
        if pos == m:
            return True
        boundary = tuple(
            sorted((qv, gv) for qv, gv in qmap.items() if qv in future_vertices[pos])
        )
        memo_key = (pos, boundary, used)
        if memo_key in failed:
            stats.memo_hits += 1
            return False

        i = order[pos]
        piece = pieces[i]
        to_query = piece.to_query
        overlap_seed = {
            pv: qmap[qv] for pv, qv in to_query.items() if qv in qmap
        }

        # Fully-seeded shortcut: every piece vertex is already bound, so
        # the piece embeds iff its edges exist under the binding — no
        # center enumeration needed (a real embedding trivially satisfies
        # every distance constraint).
        if len(overlap_seed) == piece.tree.num_vertices:
            for u, v, lbl in piece.tree.edges():
                gu, gv = overlap_seed[u], overlap_seed[v]
                if not graph.has_edge(gu, gv) or graph.edge_label(gu, gv) != lbl:
                    failed.add(memo_key)
                    return False
            center_image = tuple(
                sorted(overlap_seed[v] for v in piece.center)
            )
            placed_centers.append((i, center_image))
            matched = search(pos + 1, qmap, used, placed_centers)
            placed_centers.pop()
            if matched:
                return True
            failed.add(memo_key)
            return False

        for center in location_lists[i]:
            ok = True
            for j, placed in placed_centers:
                if oracle.set_distance(center, placed) > problem.distances[i][j]:
                    ok = False
                    break
            if not ok:
                continue
            stats.assignments_tried += 1
            for anchor in _anchor_seeds(piece.center, center):
                seed = dict(overlap_seed)
                conflict = False
                # Conflict scan over every entry — order-insensitive.
                for pv, gv in anchor.items():
                    if seed.get(pv, gv) != gv:
                        conflict = True
                        break
                    seed[pv] = gv
                if conflict:
                    continue
                for emb in subgraph_monomorphisms(
                    piece.tree, graph, seed=seed, prefilter=prefilter
                ):
                    stats.piece_embeddings_enumerated += 1
                    extended = dict(qmap)
                    new_used = set(used)
                    good = True
                    # Consistency scan over every entry — order-insensitive.
                    for pv, gv in emb.items():
                        qv = to_query[pv]
                        known = extended.get(qv)
                        if known is None:
                            if gv in new_used:
                                good = False  # distinct query vertices collided
                                break
                            extended[qv] = gv
                            new_used.add(gv)
                        elif known != gv:
                            good = False
                            break
                    if good:
                        placed_centers.append((i, center))
                        matched = search(
                            pos + 1, extended, frozenset(new_used), placed_centers
                        )
                        placed_centers.pop()
                        if matched:
                            return True
        failed.add(memo_key)
        return False

    return search(0, {}, frozenset(), [])
