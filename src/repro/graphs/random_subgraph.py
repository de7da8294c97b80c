"""Random connected subgraph extraction.

Section 6 builds query workloads ``Q_m`` by extracting a random connected
``m``-edge subgraph from randomly chosen database graphs; Section 5.1's
randomized partition also needs random connected edge splits.  Both live
here so they share the same growth procedure.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Protocol, Set, Tuple

from repro.exceptions import GraphError
from repro.graphs.graph import Edge, LabeledGraph, edge_key


class EdgeGrowable(Protocol):
    """What edge-subset growth reads of a graph: its edges and neighbors."""

    def edges(self) -> Iterable[Tuple[int, int, object]]: ...

    def neighbors(self, u: int) -> Iterable[int]: ...


def random_connected_edge_subset(
    graph: EdgeGrowable,
    num_edges: int,
    rng: random.Random,
    start_edge: Optional[Edge] = None,
) -> List[Edge]:
    """Grow a random connected set of ``num_edges`` edge keys in ``graph``.

    Growth starts from ``start_edge`` (or a uniformly random edge) and
    repeatedly adds a random frontier edge incident to the current vertex
    set.  Raises :class:`GraphError` when the component containing the start
    edge has fewer than ``num_edges`` edges.
    """
    all_edges = list(graph.edges())
    if num_edges < 1:
        raise GraphError("num_edges must be >= 1")
    if not all_edges:
        raise GraphError("graph has no edges")

    if start_edge is None:
        u, v, _ = rng.choice(all_edges)
        start_edge = edge_key(u, v)
    chosen: Set[Edge] = {start_edge}
    touched: Set[int] = set(start_edge)

    while len(chosen) < num_edges:
        frontier: List[Edge] = []
        for u in touched:
            for v in graph.neighbors(u):
                key = edge_key(u, v)
                if key not in chosen:
                    frontier.append(key)
        if not frontier:
            raise GraphError(
                f"component has only {len(chosen)} edges, need {num_edges}"
            )
        key = rng.choice(frontier)
        chosen.add(key)
        touched.update(key)
    return sorted(chosen)


def random_connected_subgraph(
    graph: LabeledGraph, num_edges: int, rng: random.Random
) -> LabeledGraph:
    """A random connected ``num_edges``-edge subgraph, vertices renumbered."""
    keys = random_connected_edge_subset(graph, num_edges, rng)
    sub, _ = graph.subgraph_from_edges(keys)
    return sub


def random_spanning_tree_edges(graph: LabeledGraph, rng: random.Random) -> List[Edge]:
    """Edge keys of a uniform-ish random spanning tree (random BFS/DFS growth).

    Used by tests and the dataset generators; requires a connected graph.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    if not graph.is_connected():
        raise GraphError("random_spanning_tree_edges requires a connected graph")
    start = rng.randrange(n)
    in_tree = {start}
    edges: List[Edge] = []
    frontier: List[Tuple[int, int]] = [(start, v) for v in graph.neighbors(start)]
    while len(in_tree) < n:
        idx = rng.randrange(len(frontier))
        u, v = frontier.pop(idx)
        if v in in_tree:
            continue
        in_tree.add(v)
        edges.append(edge_key(u, v))
        frontier.extend((v, w) for w in graph.neighbors(v) if w not in in_tree)
    return sorted(edges)
