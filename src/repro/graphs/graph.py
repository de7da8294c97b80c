"""Undirected labeled graphs — the base data structure of the library.

The paper (Definition 1) models data as undirected labeled graphs
``G = (V, E, Sigma_V, Sigma_E, l)``.  :class:`LabeledGraph` realizes that
definition with integer vertices ``0..n-1``, hashable vertex labels, and
hashable edge labels.  The structure is deliberately simple and fully
deterministic: adjacency is a list of per-vertex dictionaries, edges are
stored once under a sorted ``(u, v)`` key.

Vertex and edge labels may be any hashable values; the chemical datasets
use short strings (``"C"``, ``"N"``, bond orders ``1``/``2``) and the
synthetic generator uses small integers.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import GraphError
from repro.storage.posting import PostingList, id_array

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.graphs.matcher_index import MatcherIndex

VertexLabel = Hashable
EdgeLabel = Hashable
Edge = Tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Return the canonical storage key for the undirected edge ``{u, v}``."""
    if u == v:
        raise GraphError(f"self-loops are not supported (vertex {u})")
    return (u, v) if u < v else (v, u)


class LabeledGraph:
    """An undirected labeled graph with integer vertices ``0..n-1``.

    Parameters
    ----------
    vertex_labels:
        Labels for vertices ``0..len(vertex_labels)-1``.
    edges:
        Optional iterable of ``(u, v, label)`` triples.
    graph_id:
        Optional identifier used by database containers and support sets.
    """

    __slots__ = ("_vlabels", "_adj", "_num_edges", "graph_id", "_matcher_cache")

    def __init__(
        self,
        vertex_labels: Sequence[VertexLabel] = (),
        edges: Iterable[Tuple[int, int, EdgeLabel]] = (),
        graph_id: Optional[int] = None,
    ) -> None:
        self._vlabels: List[VertexLabel] = list(vertex_labels)
        self._adj: List[Dict[int, EdgeLabel]] = [{} for _ in self._vlabels]
        self._num_edges = 0
        self.graph_id = graph_id
        self._matcher_cache: Optional["MatcherIndex"] = None
        for u, v, label in edges:
            self.add_edge(u, v, label)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, label: VertexLabel) -> int:
        """Append a vertex with ``label`` and return its id."""
        self._vlabels.append(label)
        self._adj.append({})
        self._matcher_cache = None
        return len(self._vlabels) - 1

    def add_edge(self, u: int, v: int, label: EdgeLabel) -> None:
        """Add the undirected edge ``{u, v}`` carrying ``label``."""
        key = edge_key(u, v)
        self._check_vertex(u)
        self._check_vertex(v)
        if v in self._adj[u]:
            raise GraphError(f"duplicate edge ({key[0]}, {key[1]})")
        self._adj[u][v] = label
        self._adj[v][u] = label
        self._num_edges += 1
        self._matcher_cache = None

    # ------------------------------------------------------------------
    # matcher acceleration (see repro.graphs.matcher_index)
    # ------------------------------------------------------------------
    def matcher_index(self) -> "MatcherIndex":
        """The graph's cached :class:`~repro.graphs.matcher_index.MatcherIndex`.

        Built lazily on first use and dropped by every structural
        mutation (``add_vertex``/``add_edge`` — vertices and edges are
        never removed in place; database-level removal discards the
        whole graph object).  Derived state only: it is never persisted
        (v1/v2/v3 loaders reconstruct graphs from columns, so a loaded
        graph rebuilds its index lazily).
        """
        if self._matcher_cache is None:
            from repro.graphs.matcher_index import MatcherIndex

            self._matcher_cache = MatcherIndex(self)
        return self._matcher_cache

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < len(self._vlabels):
            raise GraphError(f"unknown vertex {u} (graph has {len(self._vlabels)} vertices)")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vlabels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> range:
        return range(len(self._vlabels))

    def vertex_label(self, u: int) -> VertexLabel:
        self._check_vertex(u)
        return self._vlabels[u]

    def vertex_labels(self) -> Tuple[VertexLabel, ...]:
        return tuple(self._vlabels)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < len(self._vlabels) and 0 <= v < len(self._vlabels)):
            return False
        return v in self._adj[u]

    def edge_label(self, u: int, v: int) -> EdgeLabel:
        self._check_vertex(u)
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"no edge between {u} and {v}") from None

    def neighbors(self, u: int) -> Iterator[int]:
        self._check_vertex(u)
        return iter(self._adj[u])

    def neighbor_items(self, u: int) -> Iterator[Tuple[int, EdgeLabel]]:
        """Iterate ``(neighbor, edge_label)`` pairs of ``u``."""
        self._check_vertex(u)
        return iter(self._adj[u].items())

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self._adj[u])

    def edges(self) -> Iterator[Tuple[int, int, EdgeLabel]]:
        """Iterate each undirected edge exactly once as ``(u, v, label)``, u < v."""
        for u, nbrs in enumerate(self._adj):
            # Adjacency dicts are insertion-ordered by construction sequence,
            # which is part of this class's determinism guarantee.
            for v, label in nbrs.items():
                if u < v:
                    yield (u, v, label)

    def edge_set(self) -> frozenset:
        """The set of edge keys ``(u, v)`` with ``u < v`` (labels excluded)."""
        return frozenset((u, v) for u, v, _ in self.edges())

    # ------------------------------------------------------------------
    # structure predicates
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True for the empty graph and for any graph with one BFS component."""
        n = len(self._vlabels)
        if n == 0:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n

    def is_tree(self) -> bool:
        """True iff the graph is connected and has exactly ``n - 1`` edges."""
        n = len(self._vlabels)
        if n == 0:
            return False
        return self._num_edges == n - 1 and self.is_connected()

    def connected_components(self) -> List[List[int]]:
        """Vertex lists of the connected components, each sorted ascending."""
        n = len(self._vlabels)
        seen = [False] * n
        components: List[List[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        stack.append(v)
            comp.sort()
            components.append(comp)
        return components

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self, graph_id: Optional[int] = None) -> "LabeledGraph":
        g = LabeledGraph(self._vlabels, graph_id=self.graph_id if graph_id is None else graph_id)
        # Row u lists its smaller neighbours ascending, then its larger
        # ones in this graph's row order, as add_edge over edges() would.
        # Matcher candidate order and the mining digests depend on it.
        adj = g._adj
        for u, nbrs in enumerate(self._adj):
            row = adj[u]
            for v, label in nbrs.items():
                if u < v:
                    row[v] = label
                    adj[v][u] = label
        g._num_edges = self._num_edges
        return g

    def subgraph_from_edges(
        self, edge_keys: Iterable[Edge], graph_id: Optional[int] = None
    ) -> Tuple["LabeledGraph", Dict[int, int]]:
        """Build the edge-induced subgraph over ``edge_keys``.

        Returns the new graph (vertices renumbered ``0..k-1``) and the mapping
        ``old_vertex -> new_vertex``.  Vertex order in the new graph follows
        ascending old-vertex ids, making the operation deterministic.
        """
        keys = sorted(edge_key(u, v) for u, v in edge_keys)
        old_vertices = sorted({u for k in keys for u in k})
        remap = {old: new for new, old in enumerate(old_vertices)}
        sub = LabeledGraph([self._vlabels[u] for u in old_vertices], graph_id=graph_id)
        for u, v in keys:
            sub.add_edge(remap[u], remap[v], self.edge_label(u, v))
        return sub, remap

    def relabeled(self, permutation: Sequence[int]) -> "LabeledGraph":
        """Return an isomorphic copy where old vertex ``u`` becomes ``permutation[u]``.

        ``permutation`` must be a permutation of ``0..n-1``.
        """
        n = len(self._vlabels)
        if sorted(permutation) != list(range(n)):
            raise GraphError("relabeled() requires a permutation of all vertices")
        labels: List[VertexLabel] = [None] * n
        for old, new in enumerate(permutation):
            labels[new] = self._vlabels[old]
        g = LabeledGraph(labels, graph_id=self.graph_id)
        for u, v, label in self.edges():
            g.add_edge(permutation[u], permutation[v], label)
        return g

    # ------------------------------------------------------------------
    # equality
    # ------------------------------------------------------------------
    def structure_equal(self, other: "LabeledGraph") -> bool:
        """Exact equality of vertex ids, labels and edges (not isomorphism)."""
        if self._vlabels != other._vlabels or self._num_edges != other._num_edges:
            return False
        return all(
            other.has_edge(u, v) and other.edge_label(u, v) == label
            for u, v, label in self.edges()
        )

    def __repr__(self) -> str:
        gid = f" id={self.graph_id}" if self.graph_id is not None else ""
        return f"<LabeledGraph{gid} |V|={self.num_vertices} |E|={self.num_edges}>"


class GraphDatabase:
    """An ordered collection of :class:`LabeledGraph` with stable integer ids.

    Graphs keep the id they were added under even after deletions, matching
    the insert/delete maintenance discussion of Section 7.1.
    """

    def __init__(self, graphs: Iterable[LabeledGraph] = ()) -> None:
        self._graphs: Dict[int, LabeledGraph] = {}
        self._next_id = 0
        self._universe: Optional[PostingList] = None
        for g in graphs:
            self.add(g)

    def add(self, graph: LabeledGraph, graph_id: Optional[int] = None) -> int:
        """Add ``graph`` and return its database id (stamped onto ``graph_id``).

        ``graph_id`` may pin a specific unused id (wrappers aligning two
        databases use this); the auto-assign counter advances past it.
        """
        if graph_id is None:
            gid = self._next_id
        else:
            if graph_id in self._graphs:
                raise GraphError(f"graph id {graph_id} already in use")
            gid = graph_id
        self._next_id = max(self._next_id, gid + 1)
        graph.graph_id = gid
        self._graphs[gid] = graph
        self._universe = None
        return gid

    def remove(self, graph_id: int) -> LabeledGraph:
        try:
            removed = self._graphs.pop(graph_id)
        except KeyError:
            raise GraphError(f"no graph with id {graph_id}") from None
        self._universe = None
        return removed

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[LabeledGraph]:
        return iter(self._graphs.values())

    def __contains__(self, graph_id: int) -> bool:
        return graph_id in self._graphs

    def __getitem__(self, graph_id: int) -> LabeledGraph:
        try:
            return self._graphs[graph_id]
        except KeyError:
            raise GraphError(f"no graph with id {graph_id}") from None

    def graph_ids(self) -> List[int]:
        return sorted(self._graphs)

    def universe_posting(self) -> PostingList:
        """All graph ids as a cached zero-copy posting-list snapshot.

        This is the ``P_q ← D`` initializer of Algorithm 1: the stage-1
        filter and the baselines seed their candidate sets from it on
        every query, so the sorted id column is built once and shared
        until :meth:`add`/:meth:`remove` invalidate it.  Handed-out
        snapshots stay consistent — the backing array is replaced on
        invalidation, never mutated.
        """
        if self._universe is None:
            self._universe = PostingList.from_buffer(id_array(sorted(self._graphs)))
        return self._universe

    def average_edge_count(self) -> float:
        """Mean edge count, the paper's ``s̄_D`` used to pick eta."""
        if not self._graphs:
            return 0.0
        return sum(g.num_edges for g in self._graphs.values()) / len(self._graphs)
