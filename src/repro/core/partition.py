"""Randomized Feature-Tree-Partition of query graphs (Section 5.1).

``RP(q)`` recursively splits the query's edge set into connected parts
until every part is a feature tree; single-edge parts always terminate
(σ(1) = 1 keeps every database edge indexed, the worst-case guarantee).
Running ``RP`` δ times yields δ partitions: the smallest becomes ``TP_q``
(driving pruning and verification) and the union of all pieces becomes
the feature subtree set ``SF_q`` (driving support-set filtering).

Only :meth:`~repro.core.treepi.TreePiIndex.query_paper`, the paper's
pipeline, partitions.  Serving needs no ``TP_q`` and gathers ``SF_q``
deterministically instead, by enumerating every indexed subtree of the
query up to η edges (:meth:`~repro.core.treepi.TreePiIndex.plan`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.graphs.graph import Edge, LabeledGraph, edge_key
from repro.graphs.random_subgraph import random_connected_edge_subset
from repro.trees.canonical import SubsetCanonicalizer, SubsetForm
from repro.trees.center import Center


@dataclass
class QueryPiece:
    """One part of a Feature-Tree-Partition, kept in both coordinate systems.

    ``tree`` is the piece renumbered ``0..k``; ``to_query`` maps its
    vertices back onto query vertices so overlaps between pieces and
    center distances inside the query stay computable.
    """

    edges: Tuple[Edge, ...]           # edge keys in query coordinates
    tree: LabeledGraph                # piece-local coordinates
    to_query: Dict[int, int]          # piece vertex -> query vertex
    key: str                          # canonical string of the piece tree
    center: Center                    # center in piece-local coordinates
    center_in_query: Center           # the same center in query coordinates

    @property
    def size(self) -> int:
        return self.tree.num_edges


@dataclass
class Partition:
    """A Feature-Tree-Partition: non-edge-overlapping pieces covering q."""

    pieces: List[QueryPiece]

    @property
    def size(self) -> int:
        """``|p|`` — number of pieces; smaller is better (Section 5.1)."""
        return len(self.pieces)

    def piece_keys(self) -> List[str]:
        return [p.key for p in self.pieces]


class SubsetMemo(Dict[FrozenSet[Edge], Optional[SubsetForm]]):
    """Per-query memo: edge subset -> (canonical key, center in query
    coordinates, canonical order), or None for a subset that is not a
    tree.

    A subset missing from the memo is canonicalized on lookup by
    ``canon``, the one :class:`~repro.trees.canonical.SubsetCanonicalizer`
    built for the query, which the paper planner's stage 1 shares.  The
    planner's direct-hit check fills the memo and every ``RP(q)``
    restart reads it, so each distinct subset is canonicalized once per
    query.
    """

    def __init__(self, query: LabeledGraph) -> None:
        super().__init__()
        self.canon = SubsetCanonicalizer(query)

    def __missing__(self, edges: FrozenSet[Edge]) -> Optional[SubsetForm]:
        canon = self[edges] = self.canon.form(edges)
        return canon


def _make_piece(
    query: LabeledGraph, edges: Sequence[Edge], canon: SubsetForm
) -> QueryPiece:
    sub, remap = query.subgraph_from_edges(edges)
    key, center_in_query, _ = canon
    return QueryPiece(
        edges=tuple(sorted(edges)),
        tree=sub,
        to_query={new: old for old, new in remap.items()},
        key=key,
        center=tuple(remap[v] for v in center_in_query),
        center_in_query=center_in_query,
    )


class _SplitView:
    """A non-terminal subset renumbered as ``subgraph_from_edges`` would.

    Local ids follow ascending query ids and every neighbor list ascends,
    so :func:`random_connected_edge_subset` makes the same random draws
    on this view as on the built subgraph, at a fraction of the cost.
    """

    __slots__ = ("_to_query", "_adj", "_edges")

    def __init__(self, edges: Sequence[Edge]) -> None:
        self._to_query = sorted({w for e in edges for w in e})
        local = {q: i for i, q in enumerate(self._to_query)}
        self._adj: List[List[int]] = [[] for _ in self._to_query]
        self._edges: List[Tuple[int, int, None]] = []
        for u, v in sorted(edges):
            a, b = local[u], local[v]
            self._adj[a].append(b)
            self._adj[b].append(a)
            self._edges.append((a, b, None))

    def edges(self) -> Iterator[Tuple[int, int, None]]:
        return iter(self._edges)

    def neighbors(self, u: int) -> Iterator[int]:
        return iter(self._adj[u])

    def random_part(self, k: int, rng: random.Random) -> List[Edge]:
        """A random connected ``k``-edge part, in sorted query edge keys."""
        to_query = self._to_query
        return [
            (to_query[a], to_query[b])
            for a, b in random_connected_edge_subset(self, k, rng)
        ]


def _edge_components(edges: Sequence[Edge]) -> List[List[Edge]]:
    """Split an edge set into connected components (union-find, no graphs)."""
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    buckets: Dict[int, List[Edge]] = {}
    for u, v in edges:
        buckets.setdefault(find(u), []).append(edge_key(u, v))
    # Sort components by their edge lists so piece order is canonical, not
    # tied to union-find root discovery order.
    return sorted(sorted(b) for b in buckets.values())


def random_partition(
    query: LabeledGraph,
    is_feature: Callable[[str], bool],
    rng: random.Random,
    memo: Optional[SubsetMemo] = None,
) -> Partition:
    """One run of ``RP(q)``: split until every part is a feature tree.

    A connected part terminates when it is a tree whose canonical string
    the index recognizes, or when it is a single edge (which may or may not
    be a feature — a non-feature edge means the query's answer is empty,
    and the caller detects that from the piece's empty support).

    ``memo`` is the query's :class:`SubsetMemo`; pass the same memo to
    later calls on the same query to skip canonicalizing subsets again.
    """
    return _random_partition(
        query, is_feature, rng, SubsetMemo(query) if memo is None else memo, {}
    )


def _random_partition(
    query: LabeledGraph,
    is_feature: Callable[[str], bool],
    rng: random.Random,
    memo: SubsetMemo,
    steps: Dict[FrozenSet[Edge], Union[QueryPiece, _SplitView]],
) -> Partition:
    """:func:`random_partition` with ``steps`` caching, per edge subset,
    its finished piece or the view its random splits are drawn on."""
    pieces: List[QueryPiece] = []
    stack: List[List[Edge]] = [sorted(e[:2] for e in query.edges())]
    while stack:
        edges = stack.pop()
        fs = frozenset(edges)
        step = steps.get(fs)
        if step is None:
            canon = memo[fs]
            if canon is not None and (len(edges) == 1 or is_feature(canon[0])):
                step = _make_piece(query, edges, canon)
            else:
                step = _SplitView(edges)
            steps[fs] = step
        if isinstance(step, QueryPiece):
            pieces.append(step)
            continue
        # Random split into a connected part and the (possibly disconnected)
        # remainder; remainder components are pushed separately.
        part = step.random_part(rng.randint(1, len(edges) - 1), rng)
        rest = sorted(set(edges) - set(part))
        stack.append(part)
        if rest:
            stack.extend(_edge_components(rest))
    pieces.sort(key=lambda p: (-p.size, p.edges))
    return Partition(pieces)


@dataclass
class PartitionRun:
    """The outcome of running ``RP(q)`` δ times."""

    best: Partition                       # TP_q — the minimum partition found
    feature_subtrees: Dict[str, QueryPiece]  # SF_q keyed by canonical string
    attempts: int

    @property
    def sfq_size(self) -> int:
        return len(self.feature_subtrees)


def run_partitions(
    query: LabeledGraph,
    is_feature: Callable[[str], bool],
    delta: int,
    rng: Optional[random.Random] = None,
    memo: Optional[SubsetMemo] = None,
) -> PartitionRun:
    """Execute ``RP(q)`` δ times; keep the minimum partition and pool SF_q.

    The paper sets δ = |q| ("relatively large"); callers may tune it.
    Every distinct edge subset is canonicalized once (through ``memo``,
    which the caller may have filled already) and materialized as a piece
    or a split view once, so restarts after the first pay only for their
    random splits.
    """
    if rng is None:
        rng = random.Random(0xC0FFEE)
    best: Optional[Partition] = None
    sfq: Dict[str, QueryPiece] = {}
    attempts = max(1, delta)
    if memo is None:
        memo = SubsetMemo(query)
    steps: Dict[FrozenSet[Edge], Union[QueryPiece, _SplitView]] = {}
    for _ in range(attempts):
        partition = _random_partition(query, is_feature, rng, memo, steps)
        for piece in partition.pieces:
            sfq.setdefault(piece.key, piece)
        if best is None or partition.size < best.size:
            best = partition
    assert best is not None
    return PartitionRun(best=best, feature_subtrees=sfq, attempts=attempts)
