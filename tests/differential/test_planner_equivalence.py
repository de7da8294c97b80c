"""Differential suite: the memoized query planner vs the frozen original.

:func:`_reference_augmentation_keys`, :func:`_reference_random_partition`
and :func:`_reference_run_partitions` are verbatim freezes of the planner
as it stood before subsets were canonicalized once per query (one
throw-away subgraph, one ``tree_canonical_string`` and up to three
``tree_center`` calls per subset), with only their names changed.  The
rewrite may change *how fast* a plan is made, never *which* plan: for
every corpus of the differential sweep, plus seeded 4/8/12/16-edge
extractions from larger molecules, both planners must produce

* the same stage-1 keys: the single-edge keys in edge order, and the
  larger keys the index's lattice yields up to ``max(3, α)`` edges equal
  the frozen augmentation keys restricted to the indexed ones,
* the same ``TP_q`` — every piece's edges, key, center, query center,
  ``to_query`` map and tree,
* the same ``SF_q``, keys in the same order,
* the same RNG state afterwards, which pins identical random draws.

Edge cases (a single-edge query, an edge-centered piece, ``None`` and
non-string labels, cyclic queries) are pinned separately.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import pytest

from repro.core import FeatureTree, TreePiIndex
from repro.core.lattice import FeatureLattice
from repro.core.partition import (
    Partition,
    PartitionRun,
    QueryPiece,
    SubsetMemo,
    random_partition,
    run_partitions,
)
from repro.core.treepi import _subtree_levels
from repro.datasets import extract_query_workload, generate_aids_like
from repro.graphs import LabeledGraph, cycle_graph, path_graph
from repro.graphs.graph import Edge, edge_key
from repro.graphs.random_subgraph import random_connected_edge_subset
from repro.mining import MinedPattern
from repro.trees.canonical import SubsetCanonicalizer, tree_canonical_string
from repro.trees.center import tree_center

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    corpus_params,
    make_corpus,
)
from tests.differential.test_matcher_equivalence import CONFIG
from tests.differential.test_subset_canonicalizer import connected_subsets

#: Stage 1's depth in the paper planner, ``max(3, α)``.
STAGE1_SIZE = max(3, CONFIG.support.alpha)


# ----------------------------------------------------------------------
# the frozen pre-change planner (reference oracle)
# ----------------------------------------------------------------------
def _reference_augmentation_keys(
    query: LabeledGraph, max_size: int
) -> Tuple[List[str], List[str]]:
    single_edge_keys: List[str] = []
    larger_keys: Set[str] = set()
    frontier: List[frozenset] = []
    seen: Set[frozenset] = set()
    for u, v, elabel in query.edges():
        probe = LabeledGraph(
            [query.vertex_label(u), query.vertex_label(v)], [(0, 1, elabel)]
        )
        single_edge_keys.append(tree_canonical_string(probe))
        es = frozenset({(u, v) if u < v else (v, u)})
        seen.add(es)
        frontier.append(es)

    size = 1
    while frontier and size < max_size:
        next_frontier: List[frozenset] = []
        for es in frontier:
            touched = {w for e in es for w in e}
            for u in touched:
                for v in query.neighbors(u):
                    key = (u, v) if u < v else (v, u)
                    if key in es:
                        continue
                    if v in touched and u in touched:
                        continue  # would close a cycle
                    extended = es | {key}
                    if extended in seen:
                        continue
                    seen.add(extended)
                    sub, _ = query.subgraph_from_edges(extended)
                    larger_keys.add(tree_canonical_string(sub))
                    next_frontier.append(extended)
        frontier = next_frontier
        size += 1
    return single_edge_keys, sorted(larger_keys)


def _reference_make_piece(
    edges: Sequence[Edge], sub: LabeledGraph, remap: Dict[int, int]
) -> QueryPiece:
    to_query = {new: old for old, new in remap.items()}
    center = tree_center(sub)
    return QueryPiece(
        edges=tuple(sorted(edges)),
        tree=sub,
        to_query=to_query,
        key=tree_canonical_string(sub),
        center=center,
        center_in_query=tuple(sorted(to_query[v] for v in center)),
    )


def _reference_edge_components(edges: Sequence[Edge]) -> List[List[Edge]]:
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
    return sorted(sorted(b) for b in buckets.values())


_CacheEntry = Tuple[bool, object, object]


def _reference_random_partition(
    query: LabeledGraph,
    is_feature: Callable[[str], bool],
    rng: random.Random,
    cache: Optional[Dict[frozenset, _CacheEntry]] = None,
) -> Partition:
    if cache is None:
        cache = {}
    pieces: List[QueryPiece] = []
    stack: List[List[Edge]] = [sorted(e[:2] for e in query.edges())]
    while stack:
        edges = stack.pop()
        fs = frozenset(edges)
        entry = cache.get(fs)
        if entry is None:
            sub, remap = query.subgraph_from_edges(edges)
            terminal = len(edges) == 1 or (
                sub.is_tree() and is_feature(tree_canonical_string(sub))
            )
            if terminal:
                entry = (True, _reference_make_piece(edges, sub, remap), None)
            else:
                entry = (False, sub, remap)
            cache[fs] = entry
        if entry[0]:
            pieces.append(entry[1])  # type: ignore[arg-type]
            continue
        sub, remap = entry[1], entry[2]  # type: ignore[assignment]
        k = rng.randint(1, len(edges) - 1)
        local_part = random_connected_edge_subset(sub, k, rng)
        inverse = {new: old for old, new in remap.items()}
        part = sorted(edge_key(inverse[u], inverse[v]) for u, v in local_part)
        rest = sorted(set(edges) - set(part))
        stack.append(part)
        if rest:
            stack.extend(_reference_edge_components(rest))
    pieces.sort(key=lambda p: (-p.size, p.edges))
    return Partition(pieces)


def _reference_run_partitions(
    query: LabeledGraph,
    is_feature: Callable[[str], bool],
    delta: int,
    rng: Optional[random.Random] = None,
) -> PartitionRun:
    if rng is None:
        rng = random.Random(0xC0FFEE)
    best: Optional[Partition] = None
    sfq: Dict[str, QueryPiece] = {}
    attempts = max(1, delta)
    cache: Dict[frozenset, _CacheEntry] = {}
    for _ in range(attempts):
        partition = _reference_random_partition(query, is_feature, rng, cache)
        for piece in partition.pieces:
            sfq.setdefault(piece.key, piece)
        if best is None or partition.size < best.size:
            best = partition
    assert best is not None
    return PartitionRun(best=best, feature_subtrees=sfq, attempts=attempts)


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def _piece_facts(piece: QueryPiece) -> tuple:
    tree = piece.tree
    return (
        piece.edges,
        piece.key,
        piece.center,
        piece.center_in_query,
        sorted(piece.to_query.items()),
        tree.vertex_labels(),
        sorted(tree.edges()),
    )


def _partition_facts(partition: Partition) -> List[tuple]:
    return [_piece_facts(p) for p in partition.pieces]


def _subtree_lattice(
    query: LabeledGraph, is_feature: Callable[[str], bool], max_size: int
) -> FeatureLattice:
    """A lattice over the query's own subtrees of up to ``max_size``
    edges that ``is_feature`` accepts, each indexed."""
    features: Dict[str, FeatureTree] = {}
    for edges in connected_subsets(query, max_size):
        sub, _ = query.subgraph_from_edges(edges)
        if not sub.is_tree():
            continue
        key = tree_canonical_string(sub)
        if is_feature(key) and key not in features:
            features[key] = FeatureTree.from_mined_pattern(
                len(features), MinedPattern(sub, key)
            )
    return FeatureLattice(features.values(), features.keys())


def assert_stage1_keys_agree(
    query: LabeledGraph,
    lattice: FeatureLattice,
    is_feature: Callable[[str], bool],
    max_size: int,
) -> None:
    levels = _subtree_levels(
        query, max_size, lattice, SubsetCanonicalizer(query)
    )
    singles = next(levels)
    larger = {key for level in levels for key in level if is_feature(key)}
    want_singles, want_larger = _reference_augmentation_keys(query, max_size)
    assert singles == want_singles
    assert sorted(larger) == [key for key in want_larger if is_feature(key)]


def assert_planners_agree(
    query: LabeledGraph,
    is_feature: Callable[[str], bool],
    delta: int,
    seed: int,
    max_size: int = STAGE1_SIZE,
    lattice: Optional[FeatureLattice] = None,
) -> None:
    if lattice is None:
        lattice = _subtree_lattice(query, is_feature, max_size)
    assert_stage1_keys_agree(query, lattice, is_feature, max_size)

    # Filled as the paper planner's direct-hit check leaves it.
    memo = SubsetMemo(query)
    memo[frozenset((u, v) for u, v, _ in query.edges())]

    new_rng, old_rng = random.Random(seed), random.Random(seed)
    new = run_partitions(query, is_feature, delta, new_rng, memo)
    old = _reference_run_partitions(query, is_feature, delta, old_rng)
    assert _partition_facts(new.best) == _partition_facts(old.best)
    assert list(new.feature_subtrees) == list(old.feature_subtrees)
    assert [_piece_facts(p) for p in new.feature_subtrees.values()] == [
        _piece_facts(p) for p in old.feature_subtrees.values()
    ]
    assert new.attempts == old.attempts
    assert new_rng.getstate() == old_rng.getstate()

    # A fresh memo (nothing canonicalized beforehand) plans identically too.
    fresh_rng = random.Random(seed)
    fresh = run_partitions(query, is_feature, delta, fresh_rng)
    assert _partition_facts(fresh.best) == _partition_facts(old.best)
    assert fresh_rng.getstate() == old_rng.getstate()

    new_rng, old_rng = random.Random(seed + 1), random.Random(seed + 1)
    assert _partition_facts(
        random_partition(query, is_feature, new_rng)
    ) == _partition_facts(_reference_random_partition(query, is_feature, old_rng))
    assert new_rng.getstate() == old_rng.getstate()


# ----------------------------------------------------------------------
# the 30-corpus sweep and larger seeded extractions
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_plans_match_reference(kind, seed):
    db, queries = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    for i, query in enumerate(queries):
        assert_planners_agree(
            query,
            index.has_feature,
            max(1, query.num_edges),
            seed + i,
            lattice=index.lattice,
        )


@pytest.mark.parametrize("seed", [1, 2])
def test_large_extractions_match_reference(seed):
    db = generate_aids_like(12, avg_atoms=24, seed=seed)
    index = TreePiIndex.build(db, CONFIG)
    for num_edges in (4, 8, 12, 16):
        workload = extract_query_workload(db, num_edges, 6, seed=seed * 100 + num_edges)
        for i, query in enumerate(workload.queries):
            assert_planners_agree(
                query, index.has_feature, num_edges, seed + i,
                lattice=index.lattice,
            )
            # No feature beyond single edges: RP splits all the way down.
            assert_planners_agree(query, lambda key: False, 4, seed + i)


# ----------------------------------------------------------------------
# pinned edge cases
# ----------------------------------------------------------------------
def _everything(key: str) -> bool:
    return True


def _nothing(key: str) -> bool:
    return False


class TestEdgeCases:
    def test_single_edge_query(self):
        q = path_graph(["a", "b"])
        for is_feature in (_everything, _nothing):
            assert_planners_agree(q, is_feature, 1, 3)

    def test_edge_centered_piece(self):
        q = path_graph(["a", "b", "b", "c"])
        run = run_partitions(q, _everything, 2, random.Random(0))
        (piece,) = run.best.pieces
        assert len(piece.center) == 2
        assert_planners_agree(q, _everything, 2, 0)

    def test_none_and_non_string_labels(self):
        q = LabeledGraph(
            [None, 1, (2, "x"), None, 1.5],
            [(0, 1, None), (1, 2, 2), (2, 3, None), (1, 4, ("b", 1)), (3, 4, 0)],
        )
        for is_feature in (_everything, _nothing, lambda key: "None" in key):
            assert_planners_agree(q, is_feature, 5, 11)

    def test_cyclic_queries(self):
        for labels in (["a"] * 6, ["a", "b"] * 3, ["a", "b", "c", "d", "e"]):
            q = cycle_graph(labels)
            for is_feature in (_everything, _nothing):
                assert_planners_agree(q, is_feature, len(labels), 7)

    def test_fused_rings(self):
        # Two hexagons sharing an edge, with a pendant: cycles survive
        # several splits, so split views are reused across restarts.
        q = LabeledGraph(
            ["C"] * 10 + ["O"],
            [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 0, 2),
             (4, 6, 1), (6, 7, 2), (7, 8, 1), (8, 9, 2), (9, 3, 1), (7, 10, 1)],
        )
        for is_feature in (_everything, _nothing, lambda key: len(key) < 60):
            assert_planners_agree(q, is_feature, 11, 13, max_size=4)
