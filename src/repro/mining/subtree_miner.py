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
them.

Embeddings may optionally be capped per (pattern, graph) to bound memory —
the memory pressure Section 4.1 discusses.  With a cap the mine becomes
approximate (a graph whose retained embeddings all miss an extension can
be undercounted at the next level); the default is exact.

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
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.mining.patterns import Embedding, MinedPattern
from repro.mining.support import SupportFunction
from repro.trees.canonical import SubsetCanonicalizer, tree_canonical_string

# An extension descriptor: attach a new vertex labeled `vertex_label` to
# pattern vertex `anchor` through an edge labeled `edge_label`.
Descriptor = Tuple[int, Hashable, Hashable]

# Re-expresses a duplicate candidate's embedding in its representative's
# vertex order.
Align = Callable[[Embedding], Embedding]

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
    for u, v, elabel in graph.edges():
        lu, lv = graph.vertex_label(u), graph.vertex_label(v)
        # Deterministic representative orientation via repr order.
        if repr(lu) <= repr(lv):
            labels, oriented = (lu, lv), [(u, v)]
        else:
            labels, oriented = (lv, lu), [(v, u)]
        if lu == lv:
            oriented = [(u, v), (v, u)]
        tree = LabeledGraph(labels, [(0, 1, elabel)])
        key = tree_canonical_string(tree)
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
            for w, elabel in adj[gv].items():  # noqa: REPRO101 - extensions land in sets; descriptors are sorted at merge
                if w in image:
                    continue
                descriptor: Descriptor = (pv, elabel, vlabels[w])
                bucket = sites.get(descriptor)
                if bucket is None:
                    sites[descriptor] = {emb + (w,)}
                else:
                    bucket.add(emb + (w,))
    return sites


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

    def maximal_patterns(self) -> List[MinedPattern]:
        """Patterns with no frequent one-edge extension (SPIN's notion).

        A pattern is maximal when none of the frequent patterns one size
        up contains it.  Useful for compact summaries of what the miner
        found; containment is checked with the generic matcher, which is
        cheap at feature-tree sizes.
        """
        from repro.graphs.isomorphism import is_subgraph_isomorphic

        by_size: Dict[int, List[MinedPattern]] = {}
        for _, pattern in sorted(self.patterns.items()):
            by_size.setdefault(pattern.size, []).append(pattern)
        maximal: List[MinedPattern] = []
        for size, group in sorted(by_size.items()):
            parents = by_size.get(size + 1, [])
            for pattern in group:
                if not any(
                    is_subgraph_isomorphic(pattern.graph, parent.graph)
                    for parent in parents
                ):
                    maximal.append(pattern)
        return maximal


class FrequentSubtreeMiner:
    """Mine all σ(s)-frequent subtrees of a graph database.

    Parameters
    ----------
    database:
        The graph database to mine.
    support:
        The σ(s) threshold function (Eq. 1).
    max_embeddings_per_graph:
        Optional cap on stored embeddings per (pattern, graph); ``None``
        (default) keeps mining exact.
    """

    def __init__(
        self,
        database: GraphDatabase,
        support: SupportFunction,
        max_embeddings_per_graph: Optional[int] = None,
    ) -> None:
        self._db = database
        self._support = support
        self._cap = max_embeddings_per_graph

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
                self._store(pattern, gid, embeddings)
        return patterns

    def _store(
        self,
        pattern: MinedPattern,
        gid: int,
        embeddings: Iterable[Embedding],
        align: Optional[Align] = None,
    ) -> None:
        """Record one site's embeddings, aligned onto ``pattern``.

        Uncapped, the stored set is a union, so order is free.  Capped,
        embeddings are kept in sorted (pre-alignment) order until the
        (pattern, graph) bucket is full.
        """
        if self._cap is None:
            bucket = pattern.embeddings.get(gid)
            if bucket is None:
                bucket = pattern.embeddings[gid] = set()
            bucket.update(embeddings if align is None else map(align, embeddings))
            return
        for emb in sorted(embeddings):
            bucket = pattern.embeddings.get(gid)
            if bucket is not None and len(bucket) >= self._cap:
                return
            pattern.add_embedding(gid, emb if align is None else align(emb))

    # ------------------------------------------------------------------
    def _extend_level(
        self, current: Dict[str, MinedPattern]
    ) -> Dict[str, MinedPattern]:
        """Grow every pattern of the current level by one edge.

        Iteration is fully sorted — parent pattern key, then descriptor,
        then graph id, then (capped) embedding — so the representative
        of each candidate isomorphism class, the alignment onto it, and
        the stored embedding sets are a function of the level alone.
        """
        candidates: Dict[str, MinedPattern] = {}
        # Each representative's vertices in key pre-order, for this level.
        orders: Dict[str, Tuple[int, ...]] = {}
        for _, pattern in sorted(current.items()):
            # descriptor -> (graph id, raw extended embeddings), gid order
            sites: Dict[Descriptor, List[Tuple[int, Set[Embedding]]]] = {}
            for gid in sorted(pattern.embeddings):
                found = _extension_sites(self._db[gid], pattern.embeddings[gid])
                for descriptor, raw in found.items():  # noqa: REPRO101 - one entry per graph, appended in gid order; descriptors sorted below
                    if descriptor in sites:
                        sites[descriptor].append((gid, raw))
                    else:
                        sites[descriptor] = [(gid, raw)]
            for descriptor in sorted(sites, key=_descriptor_sort_key):
                representative, align = self._resolve_extension(
                    pattern, descriptor, candidates, orders
                )
                for gid, raw in sites[descriptor]:
                    self._store(representative, gid, raw, align)
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

        Uncapped, the alignment chosen cannot change the mine: every
        stored set is the full set of monomorphisms of the
        representative, which its automorphisms map onto itself, and
        two alignments differ by such an automorphism.  Capped mining
        may keep a different (equally valid) subset of embeddings for a
        representative with automorphisms than another alignment would.
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
        rep_order = orders[key]
        if order == rep_order:
            return representative, None
        # aligned[rep_order[i]] = embedding[order[i]]
        pick = [0] * len(order)
        for cand_vertex, rep_vertex in zip(order, rep_order):
            pick[rep_vertex] = cand_vertex
        return representative, itemgetter(*pick)
