"""The mined-pattern record and the level-wise miner both miners share.

A :class:`MinedPattern` couples a representative pattern graph with every
embedding found in every database graph.  Embeddings are stored as flat
tuples ``(image_of_vertex_0, image_of_vertex_1, ...)`` in the
representative's vertex order — compact, hashable, and directly reusable
for center-location extraction in the TreePi index build.

:class:`LevelwiseMiner` is the scaffold of the subtree miner (TreePi,
Section 4.1) and of the subgraph miner (the gIndex baseline): the level
loop under a non-decreasing threshold, the one-edge scan, and the
representative step that folds isomorphic candidates into one class.  A
miner supplies its canonical form and its one-edge growth of a level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.graphs.graph import GraphDatabase, LabeledGraph

Embedding = Tuple[int, ...]

# Re-expresses a duplicate candidate's embedding in its representative's
# vertex order.
Align = Callable[[Embedding], Embedding]


class MinedPattern:
    """A pattern plus its exact embedding sets per database graph."""

    __slots__ = ("graph", "key", "embeddings")

    def __init__(self, graph: LabeledGraph, key: str) -> None:
        self.graph = graph
        #: canonical string identifying the isomorphism class
        self.key = key
        #: graph id -> set of embeddings (tuples over pattern vertex order)
        self.embeddings: Dict[int, Set[Embedding]] = {}

    @property
    def size(self) -> int:
        """Edge count of the pattern (the paper's ``s``)."""
        return self.graph.num_edges

    @property
    def support(self) -> int:
        """Number of database graphs containing the pattern (``|D_t|``)."""
        return len(self.embeddings)

    def support_set(self) -> frozenset:
        """The support set ``D_t`` as a frozenset of graph ids."""
        return frozenset(self.embeddings)

    def add_embedding(self, graph_id: int, embedding: Embedding) -> bool:
        """Record an embedding; returns False if it was already known."""
        bucket = self.embeddings.setdefault(graph_id, set())
        if embedding in bucket:
            return False
        bucket.add(embedding)
        return True

    def iter_embeddings(self, graph_id: int) -> Iterator[Embedding]:
        return iter(self.embeddings.get(graph_id, ()))

    def total_embeddings(self) -> int:
        return sum(len(b) for b in self.embeddings.values())

    def __repr__(self) -> str:
        return (
            f"<MinedPattern size={self.size} support={self.support} "
            f"key={self.key[:40]!r}>"
        )


def order_aligner(order: Tuple[int, ...], rep_order: Tuple[int, ...]) -> Optional[Align]:
    """Align a duplicate pattern onto its representative by canonical order.

    ``order`` and ``rep_order`` list the duplicate's and the
    representative's vertices in the order of their equal canonical
    keys, so pairing them position by position is an isomorphism.  The
    result maps an embedding over the duplicate's vertices to the same
    embedding over the representative's; ``None`` when the orders agree.
    """
    if order == rep_order:
        return None
    # aligned[rep_order[i]] = embedding[order[i]]
    pick = [0] * len(order)
    for cand_vertex, rep_vertex in zip(order, rep_order):
        pick[rep_vertex] = cand_vertex
    return itemgetter(*pick)


@dataclass
class MiningStats:
    """Per-level accounting of one mining run."""

    patterns_per_level: Dict[int, int] = field(default_factory=dict)
    candidates_per_level: Dict[int, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def total_patterns(self) -> int:
        return sum(self.patterns_per_level.values())


@dataclass
class MiningResult:
    """All frequent patterns keyed by canonical string, plus statistics."""

    patterns: Dict[str, MinedPattern]
    stats: MiningStats

    def by_size(self, size: int) -> List[MinedPattern]:
        """Patterns of one edge size, in canonical-key order."""
        return [p for _, p in sorted(self.patterns.items()) if p.size == size]

    def max_size(self) -> int:
        return max((p.size for p in self.patterns.values()), default=0)


class LevelwiseMiner:
    """Mine every frequent connected pattern of up to ``max_size`` edges.

    Patterns grow one edge at a time; level ``s`` keeps the candidates
    found in at least ``support(s)`` graphs.  ``support`` must be
    non-decreasing: support is anti-monotone, so every frequent pattern
    then extends a frequent pattern of the level below, and extending
    only a level's survivors is complete.

    Every pattern keeps *all* its embeddings, and a level's candidates
    come from extending the stored embeddings of the level below, so no
    pattern is ever searched for in a database graph.  Each level is
    taken in canonical-key order, so the mine does not depend on hash
    seeds or dict order.

    A subclass supplies :meth:`_canonical` (its canonical key and the
    vertex order the key lists) and :meth:`_extend_level`.
    """

    def __init__(
        self,
        database: GraphDatabase,
        support: Callable[[int], float],
        max_size: int,
    ) -> None:
        self._db = database
        self._support = support
        self._max_size = max_size

    def mine(self) -> MiningResult:
        """Run the level-wise mine and return every frequent pattern."""
        start = time.perf_counter()
        stats = MiningStats()
        frequent: Dict[str, MinedPattern] = {}
        candidates = self._single_edges()
        size = 1
        while True:
            threshold = self._support(size)
            current = {
                key: pat
                for key, pat in sorted(candidates.items())
                if pat.support >= threshold
            }
            stats.patterns_per_level[size] = len(current)
            frequent.update(current)
            if not current or size >= self._max_size:
                break
            size += 1
            candidates = self._extend_level(current)
            stats.candidates_per_level[size] = len(candidates)
        stats.elapsed_seconds = time.perf_counter() - start
        return MiningResult(patterns=frequent, stats=stats)

    def _single_edges(self) -> Dict[str, MinedPattern]:
        """Level 1: every distinct labeled edge, with all its occurrences.

        A one-edge pattern is a function of its labels, so each oriented
        ``(vertex, edge, vertex)`` label triple builds and keys one
        pattern, whichever graph shows it first.  The endpoint labels
        are ordered by ``repr``; an edge between equal labels embeds
        both ways.
        """
        by_triple: Dict[Tuple[str, str, str], MinedPattern] = {}
        for gid in self._db.graph_ids():
            graph = self._db[gid]
            for u, v, elabel in graph.edges():
                lu, lv = graph.vertex_label(u), graph.vertex_label(v)
                if repr(lv) < repr(lu):
                    u, v, lu, lv = v, u, lv, lu
                triple = (repr(lu), repr(elabel), repr(lv))
                pattern = by_triple.get(triple)
                if pattern is None:
                    edge = LabeledGraph((lu, lv), [(0, 1, elabel)])
                    pattern = MinedPattern(edge, self._canonical(edge)[0])
                    by_triple[triple] = pattern
                pattern.add_embedding(gid, (u, v))
                if lu == lv:
                    pattern.add_embedding(gid, (v, u))
        return {pattern.key: pattern for pattern in by_triple.values()}

    def _represent(
        self,
        candidate: LabeledGraph,
        candidates: Dict[str, MinedPattern],
        orders: Dict[str, Tuple[int, ...]],
    ) -> Tuple[MinedPattern, Optional[Align]]:
        """The class ``candidate`` falls in, and the alignment onto it.

        The first candidate of a level to reach a key becomes the
        representative of its isomorphism class (``orders`` keeps its
        canonical vertex order); a later one is aligned onto it with
        :func:`order_aligner`, so no isomorphism search runs.  The
        alignment chosen cannot change the mine: each stored set is the
        full set of monomorphisms of the representative, which its
        automorphisms map onto itself, and two alignments differ by
        such an automorphism.
        """
        key, order = self._canonical(candidate)
        representative = candidates.get(key)
        if representative is None:
            representative = candidates[key] = MinedPattern(candidate, key)
            orders[key] = order
            return representative, None
        return representative, order_aligner(order, orders[key])

    def _canonical(self, pattern: LabeledGraph) -> Tuple[str, Tuple[int, ...]]:
        """Canonical key of ``pattern`` and its vertices in key order."""
        raise NotImplementedError

    def _extend_level(
        self, current: Dict[str, MinedPattern]
    ) -> Dict[str, MinedPattern]:
        """Every one-edge extension of ``current``, keyed by class."""
        raise NotImplementedError
