"""Frequent *subgraph* mining (gSpan-style) — substrate for the gIndex baseline.

TreePi's comparator indexes arbitrary frequent subgraphs, so reproducing
the comparison requires a frequent subgraph miner.  The structure mirrors
:class:`repro.mining.subtree_miner.FrequentSubtreeMiner` — level-wise
edge growth with exact embedding tracking — with two differences:

* **backward extensions** close cycles between already-mapped vertices,
* isomorphism classes are keyed by the *minimum DFS code* canonical label
  (exponential worst case), not the polynomial tree canonical string.

That canonical-label asymmetry is precisely the index-construction cost
gap Figures 12(a)/13(a) measure.  A duplicate extension class is aligned
onto its representative by canonical order, as in the subtree miner:
:func:`~repro.graphs.canonical.canonical_form` also returns the vertices
in the discovery order of a traversal realizing the minimal code, and
two graphs with equal codes are isomorphic through those orders paired
position by position, so no isomorphism search runs.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from repro.graphs.canonical import canonical_form, canonical_label
from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.mining.patterns import Align, MinedPattern, order_aligner
from repro.mining.subtree_miner import MiningResult, MiningStats

# forward: ("f", anchor_vertex, edge_label, new_vertex_label)
# backward: ("b", vertex_a, vertex_b, edge_label) with a < b
Descriptor = Tuple


class FrequentSubgraphMiner:
    """Mine all ψ(l)-frequent connected subgraphs up to ``max_size`` edges.

    ``support`` is any non-decreasing threshold function of the edge count
    (gIndex's ψ(l)); non-decreasing is what makes level-wise growth
    complete.
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
        start = time.perf_counter()
        stats = MiningStats()

        current = self._mine_single_edges()
        threshold = self._support(1)
        current = {k: p for k, p in sorted(current.items()) if p.support >= threshold}
        all_frequent: Dict[str, MinedPattern] = dict(current)
        stats.patterns_per_level[1] = len(current)

        size = 1
        while current and size < self._max_size:
            size += 1
            threshold = self._support(size)
            candidates = self._extend_level(current)
            stats.candidates_per_level[size] = len(candidates)
            current = {
                key: pat
                for key, pat in sorted(candidates.items())
                if pat.support >= threshold
            }
            stats.patterns_per_level[size] = len(current)
            all_frequent.update(current)

        stats.elapsed_seconds = time.perf_counter() - start
        return MiningResult(patterns=all_frequent, stats=stats)

    # ------------------------------------------------------------------
    def _mine_single_edges(self) -> Dict[str, MinedPattern]:
        # A one-edge label is a function of its labels' reprs: canonicalize
        # once per oriented (vertex, edge, vertex) label triple.
        by_triple: Dict[Tuple[str, str, str], MinedPattern] = {}
        for graph in self._db:
            gid = graph.graph_id
            for u, v, elabel in graph.edges():
                lu, lv = graph.vertex_label(u), graph.vertex_label(v)
                ru, rv = repr(lu), repr(lv)
                if ru <= rv:
                    labels, oriented, triple = (lu, lv), [(u, v)], (ru, repr(elabel), rv)
                else:
                    labels, oriented, triple = (lv, lu), [(v, u)], (rv, repr(elabel), ru)
                if lu == lv:
                    oriented = [(u, v), (v, u)]
                pattern = by_triple.get(triple)
                if pattern is None:
                    edge = LabeledGraph(labels, [(0, 1, elabel)])
                    pattern = by_triple[triple] = MinedPattern(edge, canonical_label(edge))
                for a, b in oriented:
                    pattern.add_embedding(gid, (a, b))
        return {pattern.key: pattern for pattern in by_triple.values()}

    # ------------------------------------------------------------------
    def _extend_level(
        self, current: Dict[str, MinedPattern]
    ) -> Dict[str, MinedPattern]:
        candidates: Dict[str, MinedPattern] = {}
        # Each representative's vertices in canonical order, for this level.
        orders: Dict[str, Tuple[int, ...]] = {}
        for _, pattern in sorted(current.items()):
            ext_cache: Dict[Descriptor, Tuple[str, Optional[Align]]] = {}
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
                                key, align = self._resolve(
                                    pattern, descriptor, ext_cache, candidates, orders
                                )
                                new_emb = emb + (w,)
                            else:
                                # Backward: close a cycle between mapped
                                # vertices (each undirected edge once).
                                if pw < pv or pat_graph.has_edge(pv, pw):
                                    continue
                                descriptor = ("b", pv, pw, elabel)
                                key, align = self._resolve(
                                    pattern, descriptor, ext_cache, candidates, orders
                                )
                                new_emb = emb
                            if align is not None:
                                new_emb = align(new_emb)
                            candidates[key].add_embedding(gid, new_emb)
        return candidates

    def _resolve(
        self,
        pattern: MinedPattern,
        descriptor: Descriptor,
        ext_cache: Dict[Descriptor, Tuple[str, Optional[Align]]],
        candidates: Dict[str, MinedPattern],
        orders: Dict[str, Tuple[int, ...]],
    ) -> Tuple[str, Optional[Align]]:
        """Map an extension descriptor to its candidate's key and alignment.

        The first descriptor (in the level's iteration order) to reach a
        key builds the representative of its class.  A later one is
        aligned onto it by pairing the two canonical orders.  The
        alignment chosen cannot change the mine: each stored set is the
        full set of monomorphisms of the representative, which its
        automorphisms map onto itself, and two alignments differ by
        such an automorphism.
        """
        cached = ext_cache.get(descriptor)
        if cached is not None:
            return cached

        cand = pattern.graph.copy()
        if descriptor[0] == "f":
            _, anchor, elabel, vlabel = descriptor
            new_vertex = cand.add_vertex(vlabel)
            cand.add_edge(anchor, new_vertex, elabel)
        else:
            _, a, b, elabel = descriptor
            cand.add_edge(a, b, elabel)
        key, order = canonical_form(cand)

        align: Optional[Align] = None
        if key not in candidates:
            candidates[key] = MinedPattern(cand, key)
            orders[key] = order
        else:
            align = order_aligner(order, orders[key])
        result = (key, align)
        ext_cache[descriptor] = result
        return result


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
