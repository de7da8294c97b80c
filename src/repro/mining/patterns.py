"""Mined-pattern record shared by the subtree and subgraph miners.

A :class:`MinedPattern` couples a representative pattern graph with every
embedding found in every database graph.  Embeddings are stored as flat
tuples ``(image_of_vertex_0, image_of_vertex_1, ...)`` in the
representative's vertex order — compact, hashable, and directly reusable
for center-location extraction in the TreePi index build.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterator, Optional, Set, Tuple

from repro.graphs.graph import LabeledGraph

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
