"""Shortest-path machinery (unweighted BFS) over :class:`LabeledGraph`.

Center Distance Constraints (Section 5.2.2) compare hop distances between
feature-tree centers inside the query and inside each candidate graph, so
the index needs fast repeated single-source BFS.  :class:`DistanceOracle`
memoizes BFS levels per source vertex for one graph.

A tree center may be a single vertex or an edge (two adjacent vertices,
Theorem 1); distances between centers are therefore defined between small
vertex *sets*, taking the minimum over endpoint pairs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List

from repro.graphs.graph import LabeledGraph

INFINITY = float("inf")


def bfs_distances(graph: LabeledGraph, source: int) -> List[float]:
    """Hop distances from ``source`` to every vertex (``inf`` if unreachable)."""
    dist: List[float] = [INFINITY] * graph.num_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if dist[v] is INFINITY or dist[v] > du + 1:
                dist[v] = du + 1
                queue.append(v)
    return dist


def shortest_path_length(graph: LabeledGraph, u: int, v: int) -> float:
    """Hop distance between two vertices (``inf`` if disconnected)."""
    return bfs_distances(graph, u)[v]


def eccentricity(graph: LabeledGraph, u: int) -> float:
    """Largest hop distance from ``u`` (``inf`` on disconnected graphs)."""
    dist = bfs_distances(graph, u)
    return max(dist) if dist else 0


def diameter(graph: LabeledGraph) -> float:
    """Largest pairwise hop distance (``inf`` on disconnected graphs)."""
    if graph.num_vertices == 0:
        return 0
    return max(eccentricity(graph, u) for u in graph.vertices())


class DistanceOracle:
    """Lazy all-pairs distances for one graph, one BFS per queried source.

    Query pruning probes many vertex pairs in the same candidate graph; the
    oracle runs BFS only for sources it actually sees and caches the levels.
    """

    def __init__(self, graph: LabeledGraph) -> None:
        self._graph = graph
        self._levels: Dict[int, List[float]] = {}

    def distance(self, u: int, v: int) -> float:
        if u == v:
            return 0
        # Reuse whichever endpoint already has levels cached.
        if v in self._levels and u not in self._levels:
            u, v = v, u
        levels = self._levels.get(u)
        if levels is None:
            levels = bfs_distances(self._graph, u)
            self._levels[u] = levels
        return levels[v]

    def set_distance(self, a: Iterable[int], b: Iterable[int]) -> float:
        """Minimum distance between two vertex sets (centers may be edges)."""
        a = tuple(a)
        b = tuple(b)
        best = INFINITY
        for u in a:
            for v in b:
                d = self.distance(u, v)
                if d < best:
                    best = d
                    if best == 0:
                        return 0
        return best

