"""Level-wise frequent subtree mining with embedding tracking (Section 4.1).

The miner grows trees one edge at a time, exactly the "level wise
edge-increasing" scheme the paper prescribes, with the size-increasing
threshold σ(s) applied at each level.  The level loop, the one-edge
scan and the representative step are
:class:`~repro.mining.patterns.LevelwiseMiner`'s; this module supplies
the tree canonical key and the forward-only growth of a level.

Every pattern keeps every embedding (a set of vertex tuples per
database graph), each the full set of monomorphisms of its pattern
into that graph, so the mine is exact: every support set is the true
``D_t``.  The index keeps only each feature's support set;
``query_paper`` finds center locations by search when it needs them.

Each level takes the surviving patterns in canonical-key order.  For
each one, :func:`_extension_sites` walks its stored embeddings graph by
graph and records every one-edge extension *descriptor* with the raw
extended embeddings.  Descriptors are then folded into candidate
patterns in sorted (descriptor, graph-id) order.  A tree's key is its
canonical string, and
:meth:`~repro.trees.canonical.SubsetCanonicalizer.form` lists its
vertices in the pre-order of the key, which is the order that aligns a
later candidate of a class onto the first.  The mined result — and
everything downstream, feature ids included — therefore does not
depend on hash seeds or dict order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, Tuple

from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.mining.patterns import (
    Embedding,
    LevelwiseMiner,
    MinedPattern,
    MiningResult,
    MiningStats,
)
from repro.mining.support import SupportFunction
from repro.trees.canonical import SubsetCanonicalizer

__all__ = ["FrequentSubtreeMiner", "MiningResult", "MiningStats"]

# An extension descriptor: attach a new vertex labeled `vertex_label` to
# pattern vertex `anchor` through an edge labeled `edge_label`.
Descriptor = Tuple[int, Hashable, Hashable]


def _descriptor_sort_key(descriptor: Descriptor) -> Tuple[int, str, str]:
    """Total order over descriptors (labels compared via ``repr``)."""
    anchor, elabel, vlabel = descriptor
    return (anchor, repr(elabel), repr(vlabel))


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


class FrequentSubtreeMiner(LevelwiseMiner):
    """Mine all σ(s)-frequent subtrees of a graph database.

    Parameters
    ----------
    database:
        The graph database to mine.
    support:
        The σ(s) threshold function (Eq. 1).
    """

    def __init__(self, database: GraphDatabase, support: SupportFunction) -> None:
        super().__init__(database, support, support.max_size)

    def _canonical(self, tree: LabeledGraph) -> Tuple[str, Tuple[int, ...]]:
        form = SubsetCanonicalizer(tree).form([(u, v) for u, v, _ in tree.edges()])
        assert form is not None, "every pattern is a tree"
        key, _, order = form
        return key, order

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
                anchor, elabel, vlabel = descriptor
                tree = pattern.graph.copy()
                tree.add_edge(anchor, tree.add_vertex(vlabel), elabel)
                representative, align = self._represent(tree, candidates, orders)
                for gid, raw in sites[descriptor]:
                    bucket = representative.embeddings.setdefault(gid, set())
                    bucket.update(raw if align is None else map(align, raw))
        return candidates
