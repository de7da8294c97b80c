"""Level-wise frequent subtree mining with embedding tracking (Section 4.1).

The miner grows trees one edge at a time, exactly the "level wise
edge-increasing" scheme the paper prescribes, with the size-increasing
threshold σ(s) applied at each level.  Because σ is non-decreasing and
support is anti-monotone, every σ(s+1)-frequent tree extends some
σ(s)-frequent tree, so extending only the survivors of each level is
complete.

Unlike classic miners that keep only support counts, we retain *every
embedding* of every pattern (a set of vertex tuples per database graph):
a level's candidates and their embeddings come from extending the
stored embeddings of the level below, so no pattern is ever searched
for in a database graph.  The index keeps only each feature's support
set; ``query_paper`` finds center locations by search when it needs
them.  Every stored set is the full set of monomorphisms of its pattern
into that graph, so the mine is exact: every support set is the true
``D_t``.

Each level takes the surviving patterns in canonical-key order.  For
each one, :func:`_extension_sites` walks its stored embeddings graph by
graph and records every one-edge extension *descriptor* with the raw
extended embeddings.  Descriptors are then folded into candidate
patterns in sorted (descriptor, graph-id, embedding) order.  The first
descriptor to reach a canonical key builds the representative of its
isomorphism class.  A later one is aligned onto it by canonical
pre-order (:meth:`~repro.trees.canonical.SubsetCanonicalizer.form`
lists a tree's vertices in the order of its key, and equal keys pair
up position by position), so no isomorphism search runs.  The mined
result — and everything downstream, feature ids included — therefore
does not depend on hash seeds or dict order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.mining.patterns import Align, Embedding, MinedPattern, order_aligner
from repro.mining.support import SupportFunction
from repro.trees.canonical import SubsetCanonicalizer

# An extension descriptor: attach a new vertex labeled `vertex_label` to
# pattern vertex `anchor` through an edge labeled `edge_label`.
Descriptor = Tuple[int, Hashable, Hashable]

# Output of the single-edge scan for one graph: canonical key ->
# (ordered vertex labels, edge label, oriented embeddings).
SingleEdgeSites = Dict[str, Tuple[Tuple[Hashable, Hashable], Hashable, Set[Embedding]]]


def _descriptor_sort_key(descriptor: Descriptor) -> Tuple[int, str, str]:
    """Total order over descriptors (labels compared via ``repr``)."""
    anchor, elabel, vlabel = descriptor
    return (anchor, repr(elabel), repr(vlabel))


def _single_edge_sites(graph: LabeledGraph) -> SingleEdgeSites:
    """Every distinct labeled edge of one graph with its oriented embeddings."""
    sites: SingleEdgeSites = {}
    canon = SubsetCanonicalizer(graph)
    for u, v, elabel in graph.edges():
        lu, lv = graph.vertex_label(u), graph.vertex_label(v)
        # Deterministic representative orientation via repr order.
        if repr(lu) <= repr(lv):
            labels, oriented = (lu, lv), [(u, v)]
        else:
            labels, oriented = (lv, lu), [(v, u)]
        if lu == lv:
            oriented = [(u, v), (v, u)]
        form = canon.form(((u, v),))
        assert form is not None, "a single edge is a tree"
        key = form[0]
        entry = sites.get(key)
        if entry is None:
            entry = (labels, elabel, set())
            sites[key] = entry
        entry[2].update(oriented)
    return sites


def _extension_sites(
    graph: LabeledGraph, embeddings: Iterable[Embedding]
) -> Dict[Descriptor, Set[Embedding]]:
    """Every one-edge extension of one pattern's embeddings in one graph.

    Returns descriptor -> raw extended embeddings, still in "parent
    pattern + appended vertex" coordinates.
    """
    adj = graph._adj  # read-only, as the matcher reads it
    vlabels = graph._vlabels
    sites: Dict[Descriptor, Set[Embedding]] = {}
    for emb in embeddings:
        image = set(emb)
        for pv, gv in enumerate(emb):
            for w, elabel in adj[gv].items():
                if w in image:
                    continue
                descriptor: Descriptor = (pv, elabel, vlabels[w])
                bucket = sites.get(descriptor)
                if bucket is None:
                    sites[descriptor] = {emb + (w,)}
                else:
                    bucket.add(emb + (w,))
    return sites


def _store(
    pattern: MinedPattern,
    gid: int,
    embeddings: Iterable[Embedding],
    align: Optional[Align] = None,
) -> None:
    """Add one site's embeddings, aligned onto ``pattern``, to its set."""
    bucket = pattern.embeddings.get(gid)
    if bucket is None:
        bucket = pattern.embeddings[gid] = set()
    bucket.update(embeddings if align is None else map(align, embeddings))


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
    """All σ-frequent trees keyed by canonical string, plus statistics."""

    patterns: Dict[str, MinedPattern]
    stats: MiningStats

    def by_size(self, size: int) -> List[MinedPattern]:
        """Patterns of one edge size, in canonical-key order."""
        return [p for _, p in sorted(self.patterns.items()) if p.size == size]

    def max_size(self) -> int:
        return max((p.size for p in self.patterns.values()), default=0)


class FrequentSubtreeMiner:
    """Mine all σ(s)-frequent subtrees of a graph database.

    Parameters
    ----------
    database:
        The graph database to mine.
    support:
        The σ(s) threshold function (Eq. 1).
    """

    def __init__(self, database: GraphDatabase, support: SupportFunction) -> None:
        self._db = database
        self._support = support

    # ------------------------------------------------------------------
    def mine(self) -> MiningResult:
        """Run the level-wise mine and return every frequent pattern."""
        start = time.perf_counter()
        stats = MiningStats()

        current = self._mine_single_edges()
        threshold = self._support(1)
        # Canonical-key order throughout: every level's pattern dict is
        # sorted, so feature ids and reports never depend on discovery
        # order.
        current = {
            k: p for k, p in sorted(current.items()) if p.support >= threshold
        }
        all_frequent: Dict[str, MinedPattern] = dict(current)
        stats.patterns_per_level[1] = len(current)

        size = 1
        while current and size < self._support.max_size:
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
        """Level 1: every distinct labeled edge, with all its occurrences."""
        patterns: Dict[str, MinedPattern] = {}
        for gid in self._db.graph_ids():
            sites = _single_edge_sites(self._db[gid])
            for key, (labels, elabel, embeddings) in sorted(sites.items()):
                pattern = patterns.get(key)
                if pattern is None:
                    # The representative is derived from the labels alone,
                    # so every graph producing this key builds the same one.
                    tree = LabeledGraph(labels, [(0, 1, elabel)])
                    pattern = MinedPattern(tree, key)
                    patterns[key] = pattern
                _store(pattern, gid, embeddings)
        return patterns

    # ------------------------------------------------------------------
    def _extend_level(
        self, current: Dict[str, MinedPattern]
    ) -> Dict[str, MinedPattern]:
        """Grow every pattern of the current level by one edge.

        Iteration is fully sorted — parent pattern key, then descriptor,
        then graph id — so the representative of each candidate
        isomorphism class, the alignment onto it, and the stored
        embedding sets are a function of the level alone.
        """
        candidates: Dict[str, MinedPattern] = {}
        # Each representative's vertices in key pre-order, for this level.
        orders: Dict[str, Tuple[int, ...]] = {}
        for _, pattern in sorted(current.items()):
            # descriptor -> (graph id, raw extended embeddings), gid order
            sites: Dict[Descriptor, List[Tuple[int, Set[Embedding]]]] = {}
            for gid in sorted(pattern.embeddings):
                found = _extension_sites(self._db[gid], pattern.embeddings[gid])
                for descriptor, raw in found.items():
                    if descriptor in sites:
                        sites[descriptor].append((gid, raw))
                    else:
                        sites[descriptor] = [(gid, raw)]
            for descriptor in sorted(sites, key=_descriptor_sort_key):
                representative, align = self._resolve_extension(
                    pattern, descriptor, candidates, orders
                )
                for gid, raw in sites[descriptor]:
                    _store(representative, gid, raw, align)
        return candidates

    @staticmethod
    def _resolve_extension(
        pattern: MinedPattern,
        descriptor: Descriptor,
        candidates: Dict[str, MinedPattern],
        orders: Dict[str, Tuple[int, ...]],
    ) -> Tuple[MinedPattern, Optional[Align]]:
        """Map an extension descriptor to its canonical candidate pattern.

        The candidate tree is built in "parent + appended vertex"
        coordinates and canonicalized once, which also lists its
        vertices in the pre-order of its key.  The first (in canonical
        order) descriptor to produce a key becomes the representative of
        the isomorphism class.  Two trees with equal keys are isomorphic
        through their pre-orders, so a later descriptor is aligned onto
        the representative by pairing the two orders position by
        position; no isomorphism search runs.

        The alignment chosen cannot change the mine: every stored set
        is the full set of monomorphisms of the representative, which
        its automorphisms map onto itself, and two alignments differ by
        such an automorphism.
        """
        anchor, elabel, vlabel = descriptor
        cand = pattern.graph.copy()
        new_vertex = cand.add_vertex(vlabel)
        cand.add_edge(anchor, new_vertex, elabel)
        form = SubsetCanonicalizer(cand).form([(u, v) for u, v, _ in cand.edges()])
        assert form is not None, "a one-edge extension of a tree is a tree"
        key, _, order = form

        representative = candidates.get(key)
        if representative is None:
            representative = candidates[key] = MinedPattern(cand, key)
            orders[key] = order
            return representative, None
        return representative, order_aligner(order, orders[key])
