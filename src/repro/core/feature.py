"""Feature trees: the index entries of TreePi (Section 4.2).

A :class:`FeatureTree` is a selected frequent subtree together with

* its canonical string (the lookup key),
* its center in pattern coordinates (a vertex or an edge, Theorem 1),
* its support set, and
* for every supporting graph, the set of **center locations** — the
  positions at which embedded copies of the tree are centered.  This is
  the paper's per-vertex/per-edge bit array of Section 4.2.1, stored
  columnar in a :class:`~repro.storage.occurrences.OccurrenceStore`, and
  it is the location information that powers both Center Distance
  pruning and reconstruction-based verification.

The support set doubles as the feature's posting list: filtering
(Algorithm 1) intersects :meth:`FeatureTree.support_posting` snapshots
directly, with no per-query frozenset materialization.

A :class:`ShrunkTree` is a frequent tree that γ-shrinking removed from
the feature set, kept only as an *exception list* so that its exact
support stays derivable from the features' postings (an extension
beyond the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.graphs.graph import LabeledGraph
from repro.graphs.isomorphism import CompiledPattern
from repro.mining.patterns import MinedPattern
from repro.storage import IdStore, OccurrenceStore, PostingList
from repro.trees.center import Center, tree_center

if TYPE_CHECKING:
    from repro.storage.segments import LsmIdStore, LsmStore

CenterSet = FrozenSet[Center]

#: A feature's occurrence backing: the heap columnar store, or the
#: merged LSM view over memory-mapped segment layers.  Both expose the
#: identical read/maintenance surface used below.
StoreLike = Union[OccurrenceStore, "LsmStore"]

#: An exception list's backing: a heap id column or its LSM view.
IdStoreLike = Union[IdStore, "LsmIdStore"]


class _Compiles:
    """A tree whose :class:`CompiledPattern` is built on first use and kept.

    Maintenance matches the same trees against every inserted graph, and
    a tree never changes, so its matcher tables are built once.
    """

    __slots__ = ()

    tree: LabeledGraph
    _compiled: Optional[CompiledPattern]

    def compiled(self) -> CompiledPattern:
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledPattern(self.tree)
        return compiled


class FeatureTree(_Compiles):
    """One indexed feature tree with its exact occurrence locations."""

    __slots__ = ("feature_id", "tree", "key", "center", "store", "_compiled")

    store: StoreLike

    def __init__(
        self,
        feature_id: int,
        tree: LabeledGraph,
        key: str,
        center: Center,
        locations: Optional[Mapping[int, Iterable[Center]]] = None,
        store: Optional[StoreLike] = None,
    ) -> None:
        self.feature_id = feature_id
        self.tree = tree
        self.key = key
        self.center = center
        self._compiled = None
        if store is not None:
            if store.arity != len(center):
                raise ValueError(
                    f"store arity {store.arity} does not match "
                    f"center arity {len(center)}"
                )
            self.store = store
        else:
            self.store = OccurrenceStore.from_mapping(
                len(center), locations or {}
            )

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
        return len(self.store)

    def support_set(self) -> FrozenSet[int]:
        return self.store.graph_ids().to_frozenset()

    def support_posting(self) -> PostingList:
        """The support set as a zero-copy sorted posting-list snapshot."""
        return self.store.graph_ids()

    def centers_in(self, graph_id: int) -> CenterSet:
        """Center locations of this feature inside one graph (possibly empty)."""
        return self.store.centers_in(graph_id)

    def total_locations(self) -> int:
        return self.store.total_centers()

    @classmethod
    def from_mined_pattern(cls, feature_id: int, pattern: MinedPattern) -> "FeatureTree":
        """Derive a feature from a mined pattern's stored embeddings.

        The center of each embedded copy is the image of the pattern center
        (isomorphisms preserve centers), so locations fall straight out of
        the embedding tuples with no extra isomorphism work.
        """
        center = tree_center(pattern.graph)
        locations: Dict[int, CenterSet] = {}
        for gid, embeddings in sorted(pattern.embeddings.items()):
            locations[gid] = frozenset(
                tuple(sorted(emb[v] for v in center)) for emb in embeddings
            )
        return cls(
            feature_id=feature_id,
            tree=pattern.graph,
            key=pattern.key,
            center=center,
            locations=locations,
        )

    def add_occurrences(self, graph_id: int, centers: Iterable[Center]) -> None:
        """Insert-maintenance hook: record occurrences in a new graph."""
        self.store.add_graph(graph_id, centers)

    def remove_graph(self, graph_id: int) -> bool:
        """Delete-maintenance hook: purge a graph; True if it was present."""
        return self.store.remove_graph(graph_id)


class ShrunkTree(_Compiles):
    """A γ-shrunk frequent tree, kept as an exception list.

    ``cover`` holds the ids of the features whose supports intersect to
    ``I(t)``, the intersection over the tree's indexed proper subtrees
    (:func:`~repro.mining.shrink.shrunk_covers`).  ``store`` holds the
    exception list ``E(t) = I(t) − D_t``: the graphs in that
    intersection that do not contain the tree.  So ``D_t = I(t) − E(t)``,
    and a query that is this tree needs no verification once its plan
    has intersected every indexed proper subtree.
    """

    __slots__ = ("key", "tree", "cover", "store", "_compiled")

    def __init__(
        self,
        key: str,
        tree: LabeledGraph,
        cover: Tuple[int, ...],
        store: IdStoreLike,
    ) -> None:
        self.key = key
        self.tree = tree
        self.cover = cover
        self.store = store
        self._compiled = None

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
        within = PostingList.intersect_many([f.support_posting() for f in cover])
        support = pattern.support_set()
        return cls(
            pattern.key,
            pattern.graph,
            tuple(f.feature_id for f in cover),
            IdStore(PostingList.from_sorted([g for g in within if g not in support])),
        )

    def exceptions(self) -> PostingList:
        """``E(t)`` as a sorted posting-list snapshot."""
        return self.store.graph_ids()
