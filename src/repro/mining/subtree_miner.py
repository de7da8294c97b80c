"""Level-wise frequent subtree mining with embedding tracking (Section 4.1).

The miner grows trees one edge at a time, exactly the "level wise
edge-increasing" scheme the paper prescribes, with the size-increasing
threshold σ(s) applied at each level.  Because σ is non-decreasing and
support is anti-monotone, every σ(s+1)-frequent tree extends some
σ(s)-frequent tree, so extending only the survivors of each level is
complete.

Unlike classic miners that keep only support counts, we retain *every
embedding* of every pattern (a set of vertex tuples per database graph).
That is what enables TreePi's signature trick: the center location of each
occurrence falls out of the stored embeddings for free, giving the index
its per-graph center bits (Section 4.2.1) without a second scan.

Embeddings may optionally be capped per (pattern, graph) to bound memory —
the memory pressure Section 4.1 discusses.  With a cap the mine becomes
approximate (a graph whose retained embeddings all miss an extension can
be undercounted at the next level); the default is exact.

Each level runs in two phases:

1. **Site enumeration** (:func:`_extension_sites`) walks the stored
   embeddings of one database graph and records, per pattern, every
   one-edge extension *descriptor* together with the raw extended
   embeddings.
2. **Deterministic merge** (:meth:`FrequentSubtreeMiner._merge_level`)
   folds the per-graph sites into candidate patterns in sorted
   (pattern-key, descriptor, graph-id, embedding) order.  Representatives
   and embedding translations are a function of that canonical order, not
   of discovery order, so the mined result — and everything downstream,
   feature ids included — does not depend on hash seeds or dict order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.graphs.isomorphism import subgraph_monomorphisms
from repro.mining.patterns import Embedding, MinedPattern, translate_embedding
from repro.mining.support import SupportFunction
from repro.trees.canonical import tree_canonical_string

# An extension descriptor: attach a new vertex labeled `vertex_label` to
# pattern vertex `anchor` through an edge labeled `edge_label`.
Descriptor = Tuple[int, Hashable, Hashable]

# Phase-1 output for one graph: pattern key -> descriptor -> raw extended
# embeddings (still in "parent pattern + appended vertex" coordinates).
ExtensionSites = Dict[str, Dict[Descriptor, Set[Embedding]]]

# Phase-1 output of the single-edge scan for one graph: canonical key ->
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
    graph: LabeledGraph, embeddings_by_key: Dict[str, List[Embedding]]
) -> ExtensionSites:
    """Enumerate every one-edge extension of every embedding in one graph."""
    sites: ExtensionSites = {}
    for key, embeddings in sorted(embeddings_by_key.items()):
        per_descriptor = sites.setdefault(key, {})
        for emb in embeddings:
            image = set(emb)
            for pv, gv in enumerate(emb):
                for w, elabel in graph.neighbor_items(gv):
                    if w in image:
                        continue
                    descriptor: Descriptor = (pv, elabel, graph.vertex_label(w))
                    per_descriptor.setdefault(descriptor, set()).add(emb + (w,))
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
                for emb in sorted(embeddings):
                    self._store(pattern, gid, emb)
        return patterns

    def _store(self, pattern: MinedPattern, gid: int, embedding: Embedding) -> None:
        if self._cap is not None:
            bucket = pattern.embeddings.get(gid)
            if bucket is not None and len(bucket) >= self._cap:
                return
        pattern.add_embedding(gid, embedding)

    # ------------------------------------------------------------------
    def _extend_level(
        self, current: Dict[str, MinedPattern]
    ) -> Dict[str, MinedPattern]:
        """Grow every pattern of the current level by one edge."""
        # Phase 1: per-graph extension sites.
        sites_by_gid: Dict[int, ExtensionSites] = {}
        for gid in self._db.graph_ids():
            embeddings_by_key: Dict[str, List[Embedding]] = {}
            for key, pattern in sorted(current.items()):
                bucket = pattern.embeddings.get(gid)
                if bucket:
                    embeddings_by_key[key] = sorted(bucket)
            if embeddings_by_key:
                sites_by_gid[gid] = _extension_sites(self._db[gid], embeddings_by_key)

        # Phase 2: canonical-order merge.
        return self._merge_level(current, sites_by_gid)

    def _merge_level(
        self,
        current: Dict[str, MinedPattern],
        sites_by_gid: Dict[int, ExtensionSites],
    ) -> Dict[str, MinedPattern]:
        """Fold per-graph extension sites into candidate patterns.

        Iteration is fully sorted — parent pattern key, then descriptor,
        then graph id, then embedding — so the representative of each
        candidate isomorphism class, the translation onto it, and the
        stored embedding sets are a function of the sites alone.
        """
        ordered_gids = sorted(sites_by_gid)
        candidates: Dict[str, MinedPattern] = {}
        for parent_key, pattern in sorted(current.items()):
            descriptors: Set[Descriptor] = set()
            for gid in ordered_gids:
                per_descriptor = sites_by_gid[gid].get(parent_key)
                if per_descriptor:
                    descriptors.update(per_descriptor)
            for descriptor in sorted(descriptors, key=_descriptor_sort_key):
                key, translation, representative = self._resolve_extension(
                    pattern, descriptor, candidates
                )
                for gid in ordered_gids:
                    per_descriptor = sites_by_gid[gid].get(parent_key)
                    if not per_descriptor:
                        continue
                    raw = per_descriptor.get(descriptor)
                    if not raw:
                        continue
                    for emb in sorted(raw):
                        if translation is not None:
                            emb = translate_embedding(emb, translation)
                        self._store(representative, gid, emb)
        return candidates

    def _resolve_extension(
        self,
        pattern: MinedPattern,
        descriptor: Descriptor,
        candidates: Dict[str, MinedPattern],
    ) -> Tuple[str, Optional[Dict[int, int]], MinedPattern]:
        """Map an extension descriptor to its canonical candidate pattern.

        The candidate tree is built in "parent + appended vertex"
        coordinates; the first (in canonical order) descriptor to produce a
        key becomes the representative of the isomorphism class, and later
        descriptors are aligned onto it with one isomorphism computation.
        """
        anchor, elabel, vlabel = descriptor
        cand = pattern.graph.copy()
        new_vertex = cand.add_vertex(vlabel)
        cand.add_edge(anchor, new_vertex, elabel)
        key = tree_canonical_string(cand)

        representative = candidates.get(key)
        translation: Optional[Dict[int, int]] = None
        if representative is None:
            representative = MinedPattern(cand, key)
            candidates[key] = representative
        else:
            # Equal canonical strings: no prefilter can refute the pair,
            # and building the throw-away candidate's MatcherIndex and
            # parity matrices would be the call's largest cost.  A tree
            # pattern has no level with several back-edges, so the
            # prefilter's anchor ranking never applies and the search
            # finds the same first translation without it.
            translation = next(
                subgraph_monomorphisms(
                    cand, representative.graph, limit=1, prefilter=False
                )
            )
            if all(translation[v] == v for v in translation):
                translation = None
        return key, translation, representative
