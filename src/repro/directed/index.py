"""TreePi over directed graph databases (Section 7.2).

:class:`DirectedTreePiIndex` wraps the undirected engine through the
subdivision reduction: the database is subdivided once at build time, and
every directed query is subdivided before entering the standard
partition → filter → prune → reconstruct pipeline.  Answers are exact by
the reduction theorem (see :mod:`repro.directed.reduction`).
"""

from __future__ import annotations

import time
from typing import FrozenSet, Iterable, Iterator, List

from repro.core.statistics import IndexStats, QueryResult
from repro.core.treepi import TreePiConfig, TreePiIndex
from repro.directed.digraph import DirectedLabeledGraph
from repro.directed.reduction import subdivide
from repro.exceptions import GraphError, IndexError_
from repro.graphs.graph import GraphDatabase


class DirectedGraphDatabase:
    """An ordered collection of directed graphs with stable integer ids."""

    def __init__(self, graphs: Iterable[DirectedLabeledGraph] = ()) -> None:
        self._graphs = {}
        self._next_id = 0
        for g in graphs:
            self.add(g)

    @property
    def next_id(self) -> int:
        """The id the next :meth:`add` assigns."""
        return self._next_id

    def add(self, graph: DirectedLabeledGraph) -> int:
        gid = self._next_id
        self._next_id += 1
        graph.graph_id = gid
        self._graphs[gid] = graph
        return gid

    def remove(self, graph_id: int) -> DirectedLabeledGraph:
        try:
            return self._graphs.pop(graph_id)
        except KeyError:
            raise GraphError(f"no graph with id {graph_id}") from None

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[DirectedLabeledGraph]:
        return iter(self._graphs.values())

    def __contains__(self, graph_id: int) -> bool:
        return graph_id in self._graphs

    def __getitem__(self, graph_id: int) -> DirectedLabeledGraph:
        try:
            return self._graphs[graph_id]
        except KeyError:
            raise GraphError(f"no graph with id {graph_id}") from None

    def graph_ids(self) -> List[int]:
        return sorted(self._graphs)


class DirectedTreePiIndex:
    """A TreePi index answering directed containment queries exactly."""

    def __init__(self, database: DirectedGraphDatabase, config: TreePiConfig,
                 inner: TreePiIndex) -> None:
        self._db = database
        self._config = config
        self._inner = inner

    @classmethod
    def build(
        cls, database: DirectedGraphDatabase, config: TreePiConfig
    ) -> "DirectedTreePiIndex":
        """Subdivide the database and build the undirected index over it."""
        if len(database) == 0:
            raise IndexError_("cannot build an index over an empty database")
        start = time.perf_counter()
        skeletons = GraphDatabase()
        for gid in database.graph_ids():
            skeletons.add(subdivide(database[gid]), graph_id=gid)
        inner = TreePiIndex.build(skeletons, config)
        inner.stats.build_seconds = time.perf_counter() - start
        return cls(database, config, inner)

    # ------------------------------------------------------------------
    @property
    def database(self) -> DirectedGraphDatabase:
        return self._db

    @property
    def stats(self) -> IndexStats:
        return self._inner.stats

    def feature_count(self) -> int:
        return self._inner.feature_count()

    # ------------------------------------------------------------------
    def query(self, query: DirectedLabeledGraph) -> QueryResult:
        """All directed database graphs containing ``query``."""
        if query.num_edges == 0:
            raise GraphError("query graphs must have at least one edge")
        if not query.is_weakly_connected():
            raise GraphError("query graphs must be weakly connected")
        result = self._inner.query(subdivide(query))
        # Graph ids coincide by construction; the result passes through.
        return result

    def support_set(self, query: DirectedLabeledGraph) -> FrozenSet[int]:
        return self.query(query).matches

    # ------------------------------------------------------------------
    def insert(self, graph: DirectedLabeledGraph) -> int:
        """Section 7.1 maintenance, routed through the reduction.

        The skeleton goes into the undirected index first, under the id
        the directed database assigns next, and the graph is recorded
        only once that succeeds: a failed insert changes neither.
        """
        gid = self._db.next_id
        self._inner.insert(subdivide(graph), graph_id=gid)
        return self._db.add(graph)

    def delete(self, graph_id: int) -> None:
        self._inner.delete(graph_id)
        self._db.remove(graph_id)

    @property
    def churn_fraction(self) -> float:
        return self._inner.churn_fraction

    def needs_rebuild(self) -> bool:
        return self._inner.needs_rebuild()

    def rebuild(self) -> "DirectedTreePiIndex":
        return DirectedTreePiIndex.build(self._db, self._config)
