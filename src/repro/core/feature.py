"""Feature trees: the index entries of TreePi (Section 4.2).

A :class:`FeatureTree` is a selected frequent subtree together with

* its canonical string (the lookup key),
* its center in pattern coordinates (a vertex or an edge, Theorem 1), and
* its support set, stored as sorted graph ids in an
  :class:`~repro.storage.IdStore` (or an LSM store on a v3 index).

Each tree owns its id set (:class:`IndexedTree`): the column, which
persistence reads, and the bitmap over the index's graph slots that
filtering (Algorithm 1) ANDs, so no query materializes a support set.

The paper also stores, for every supporting graph, the **center
locations** — the positions at which embedded copies of the tree are
centered (the per-vertex/per-edge bit array of Section 4.2.1) — for
Center Distance pruning and reconstruction-based verification.  Only
:meth:`~repro.core.treepi.TreePiIndex.query_paper` reads them, so this
index does not store them: :meth:`FeatureTree.locate_centers` finds them
in one graph by search when that pipeline asks.

A :class:`ShrunkTree` is a frequent tree that γ-shrinking removed from
the feature set, kept only as an *exception list* so that its exact
support stays derivable from the features' postings (an extension
beyond the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Tuple, Union

from repro.analysis.guards import hot_path
from repro.graphs.graph import LabeledGraph
from repro.graphs.isomorphism import CompiledPattern, subgraph_monomorphisms
from repro.mining.patterns import MinedPattern
from repro.storage import IdStore, PostingList, SlotTable
from repro.trees.center import Center, tree_center

if TYPE_CHECKING:
    from repro.storage.segments import LsmIdStore

CenterSet = FrozenSet[Center]

#: An id set's backing — a feature's support set or an exception list:
#: a heap id column, or the LSM layers over memory-mapped segments.
#: Both expose the same read/maintenance surface.
IdStoreLike = Union[IdStore, "LsmIdStore"]


def mined_centers(pattern: MinedPattern) -> Dict[int, CenterSet]:
    """Center locations of ``pattern`` per graph, from its mined embeddings.

    The center of each embedded copy is the image of the pattern center
    (isomorphisms preserve centers), so locations fall straight out of
    the embedding tuples with no extra isomorphism work.  Mining keeps
    every embedding, so these are all of the pattern's center locations.
    """
    center = tree_center(pattern.graph)
    return {
        gid: frozenset(tuple(sorted(emb[v] for v in center)) for emb in embeddings)
        for gid, embeddings in sorted(pattern.embeddings.items())
    }


class IndexedTree:
    """A tree with an id set: a feature's support, or an exception list.

    The tree owns the set's column (``store``), its bitmap over the
    index's graph slots once a query builds it, and its matcher tables,
    compiled on first use and kept (maintenance matches the same trees
    against every inserted graph).  :meth:`add_graph` and
    :meth:`remove_graph` update the column and the bitmap together.
    """

    __slots__ = ("tree", "store", "_compiled", "_bits")

    def __init__(self, tree: LabeledGraph, store: IdStoreLike) -> None:
        self.tree = tree
        self.store = store
        self._compiled: Optional[CompiledPattern] = None
        self._bits: Optional[int] = None

    def compiled(self) -> CompiledPattern:
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledPattern(self.tree)
        return compiled

    @hot_path
    def bitmap(self, slots: SlotTable) -> int:
        """The id set as a bitmap over ``slots``, built on first use."""
        bits = self._bits
        if bits is None:
            # Racing readers build equal values; either write is fine.
            bits = self._bits = slots.encode(self.store.graph_ids())
        return bits

    @property
    def cached_bitmap(self) -> Optional[int]:
        """The bitmap if a query has built it, else None."""
        return self._bits

    def add_graph(self, graph_id: int, bit: int) -> None:
        """Maintenance: ``graph_id``, in the slot of ``bit``, joins the set."""
        self.store.add_graph(graph_id)
        if self._bits is not None:
            self._bits |= bit

    def remove_graph(self, graph_id: int, bit: int) -> None:
        """Maintenance: purge deleted ``graph_id``, whose slot was ``bit``."""
        self.store.remove_graph(graph_id)
        if self._bits is not None:
            self._bits &= ~bit


class FeatureTree(IndexedTree):
    """One indexed feature tree with its exact support set."""

    __slots__ = ("feature_id", "key", "center")

    def __init__(
        self,
        feature_id: int,
        tree: LabeledGraph,
        key: str,
        center: Center,
        support: Iterable[int] = (),
        store: Optional[IdStoreLike] = None,
    ) -> None:
        super().__init__(
            tree, store if store is not None else IdStore(PostingList(support))
        )
        self.feature_id = feature_id
        self.key = key
        self.center = center

    def __repr__(self) -> str:
        return (
            f"<FeatureTree id={self.feature_id} size={self.size} "
            f"support={self.support} key={self.key[:40]!r}>"
        )

    @property
    def size(self) -> int:
        """Edge count of the feature tree."""
        return self.tree.num_edges

    @property
    def is_edge_centered(self) -> bool:
        return len(self.center) == 2

    @property
    def support(self) -> int:
        """``|D_t|`` — the number of graphs containing this tree."""
        return len(self.store.graph_ids())

    def support_set(self) -> FrozenSet[int]:
        return self.store.graph_ids().to_frozenset()

    def support_posting(self) -> PostingList:
        """The support set as a zero-copy sorted posting-list snapshot."""
        return self.store.graph_ids()

    def locate_centers(self, graph: LabeledGraph) -> CenterSet:
        """Center locations of this feature inside ``graph`` (possibly empty).

        The centers of all embeddings, found by one full search: the set
        the paper's index stores per supporting graph.
        """
        center = self.center
        return frozenset(
            tuple(sorted(emb[v] for v in center))
            for emb in subgraph_monomorphisms(
                self.tree, graph, compiled=self.compiled()
            )
        )

    @classmethod
    def from_mined_pattern(cls, feature_id: int, pattern: MinedPattern) -> "FeatureTree":
        """Derive a feature from a mined pattern's support set."""
        return cls(
            feature_id=feature_id,
            tree=pattern.graph,
            key=pattern.key,
            center=tree_center(pattern.graph),
            support=pattern.support_set(),
        )


class ShrunkTree(IndexedTree):
    """A γ-shrunk frequent tree, kept as an exception list.

    ``cover`` holds the ids of the features whose supports intersect to
    ``I(t)``, the intersection over the tree's indexed proper subtrees
    (:func:`~repro.mining.shrink.shrunk_covers`).  ``store`` holds the
    exception list ``E(t) = I(t) − D_t``: the graphs in that
    intersection that do not contain the tree.  So ``D_t = I(t) − E(t)``,
    and a query that is this tree needs no verification once its plan
    has intersected every indexed proper subtree.
    """

    __slots__ = ("key", "cover")

    def __init__(
        self,
        key: str,
        tree: LabeledGraph,
        cover: Tuple[int, ...],
        store: IdStoreLike,
    ) -> None:
        super().__init__(tree, store)
        self.key = key
        self.cover = cover

    def __repr__(self) -> str:
        return (
            f"<ShrunkTree exceptions={len(self.exceptions())} "
            f"key={self.key[:40]!r}>"
        )

    @classmethod
    def from_mined_pattern(
        cls, pattern: MinedPattern, cover: Iterable[FeatureTree]
    ) -> "ShrunkTree":
        """The exception list of ``pattern`` against its cover's postings."""
        cover = list(cover)
        within = frozenset.intersection(*(f.support_set() for f in cover))
        return cls(
            pattern.key,
            pattern.graph,
            tuple(f.feature_id for f in cover),
            IdStore(PostingList(within - pattern.support_set())),
        )

    def exceptions(self) -> PostingList:
        """``E(t)`` as a sorted posting-list snapshot."""
        return self.store.graph_ids()
