"""Frequent *subgraph* mining (gSpan-style) — substrate for the gIndex baseline.

TreePi's comparator indexes arbitrary frequent subgraphs, so reproducing
the comparison requires a frequent subgraph miner.  The level loop, the
one-edge scan and the representative step are
:class:`~repro.mining.patterns.LevelwiseMiner`'s, shared with
:class:`~repro.mining.subtree_miner.FrequentSubtreeMiner`; this module
keeps the two real differences:

* **backward extensions** close cycles between already-mapped vertices,
* isomorphism classes are keyed by the *minimum DFS code* canonical label
  (exponential worst case), not the polynomial tree canonical string.

That canonical-label asymmetry is precisely the index-construction cost
gap Figures 12(a)/13(a) measure.  :func:`~repro.graphs.canonical.canonical_form`
also returns the vertices in the discovery order of a traversal
realizing the minimal code, which is the order that aligns a later
candidate of a class onto the first.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.graphs.canonical import canonical_form
from repro.graphs.graph import LabeledGraph
from repro.mining.patterns import Align, LevelwiseMiner, MinedPattern

# forward: ("f", anchor_vertex, edge_label, new_vertex_label)
# backward: ("b", vertex_a, vertex_b, edge_label) with a < b
Descriptor = Tuple


class FrequentSubgraphMiner(LevelwiseMiner):
    """Mine all ψ(l)-frequent connected subgraphs up to ``max_size`` edges.

    ``support`` is any non-decreasing threshold function of the edge count
    (gIndex's ψ(l)); non-decreasing is what makes level-wise growth
    complete.
    """

    def _canonical(self, graph: LabeledGraph) -> Tuple[str, Tuple[int, ...]]:
        return canonical_form(graph)

    def _extend_level(
        self, current: Dict[str, MinedPattern]
    ) -> Dict[str, MinedPattern]:
        candidates: Dict[str, MinedPattern] = {}
        # Each representative's vertices in canonical order, for this level.
        orders: Dict[str, Tuple[int, ...]] = {}
        for _, pattern in sorted(current.items()):
            resolved: Dict[Descriptor, Tuple[MinedPattern, Optional[Align]]] = {}
            pat_graph = pattern.graph
            for gid, embeddings in sorted(pattern.embeddings.items()):
                graph = self._db[gid]
                for emb in sorted(embeddings):
                    image_index = {gv: pv for pv, gv in enumerate(emb)}
                    for pv, gv in enumerate(emb):
                        for w, elabel in graph.neighbor_items(gv):
                            pw = image_index.get(w)
                            if pw is None:
                                # Forward: attach a brand-new vertex.
                                descriptor: Descriptor = (
                                    "f", pv, elabel, graph.vertex_label(w),
                                )
                                new_emb = emb + (w,)
                            else:
                                # Backward: close a cycle between mapped
                                # vertices (each undirected edge once).
                                if pw < pv or pat_graph.has_edge(pv, pw):
                                    continue
                                descriptor = ("b", pv, pw, elabel)
                                new_emb = emb
                            found = resolved.get(descriptor)
                            if found is None:
                                found = resolved[descriptor] = self._represent(
                                    _extended(pat_graph, descriptor), candidates, orders
                                )
                            representative, align = found
                            if align is not None:
                                new_emb = align(new_emb)
                            representative.add_embedding(gid, new_emb)
        return candidates


def _extended(graph: LabeledGraph, descriptor: Descriptor) -> LabeledGraph:
    """A copy of ``graph`` grown by the extension ``descriptor``."""
    grown = graph.copy()
    if descriptor[0] == "f":
        _, anchor, elabel, vlabel = descriptor
        grown.add_edge(anchor, grown.add_vertex(vlabel), elabel)
    else:
        _, a, b, elabel = descriptor
        grown.add_edge(a, b, elabel)
    return grown


def gindex_psi(
    max_size: int, theta: float, database_size: int
) -> Callable[[int], float]:
    """The gIndex size-increasing support function used in Section 6.1.

    ψ(l) = 1 for l < 4; beyond that it ramps like ``sqrt(l / maxL) · Θ·N``
    (gIndex's published interpolation), capped at ``Θ·N``.
    """
    ceiling = theta * database_size

    def psi(size: int) -> float:
        if size < 4:
            return 1
        return min(ceiling, max(1.0, (size / max_size) ** 0.5 * ceiling))

    return psi
