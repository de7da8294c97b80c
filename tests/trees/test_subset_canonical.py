"""Unit tests for canonicalizing an edge subset in place.

:func:`edge_subset_canonical_form` must return exactly what building the
subgraph and canonicalizing it returns — the query planner relies on it
to find the same feature keys and centers without building subgraphs.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.core.partition import SubsetMemo
from repro.graphs import LabeledGraph, cycle_graph, path_graph
from repro.graphs.random_subgraph import random_connected_edge_subset
from repro.trees import tree_canonical_string, tree_center
from repro.trees.canonical import SubsetCanonicalizer, edge_subset_canonical_form

from tests.property.strategies import connected_graphs


def assert_matches_subgraph(graph, edges):
    got = edge_subset_canonical_form(graph, edges)
    sub, remap = graph.subgraph_from_edges(edges)
    if not sub.is_tree():
        assert got is None
        return
    assert got is not None
    key, center = got
    assert key == tree_canonical_string(sub)
    assert list(center) == sorted(center)
    assert tuple(remap[v] for v in center) == tree_center(sub)


@settings(max_examples=200, deadline=None)
@given(
    connected_graphs(min_vertices=2, max_vertices=12, max_extra_edges=4),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
)
def test_connected_subsets_match_subgraph_canonicalization(graph, size, seed):
    size = min(size, graph.num_edges)
    edges = random_connected_edge_subset(graph, size, random.Random(seed))
    assert_matches_subgraph(graph, edges)


def test_whole_trees_and_single_edges():
    tree = LabeledGraph(
        ["a", "b", "b", "c", "c"], [(0, 1, 1), (0, 2, 1), (0, 3, 2), (2, 4, 1)]
    )
    assert_matches_subgraph(tree, [(u, v) for u, v, _ in tree.edges()])
    for u, v, _ in tree.edges():
        assert_matches_subgraph(tree, [(u, v)])


def test_edge_centered_subset():
    q = path_graph(["a", "b", "b", "a", "c"])
    key, center = edge_subset_canonical_form(q, [(0, 1), (1, 2), (2, 3)])
    assert center == (1, 2)
    assert key.startswith("E[")


def test_none_and_non_string_labels():
    g = LabeledGraph(
        [None, 1, (2, "x"), None], [(0, 1, None), (1, 2, 2.5), (1, 3, None)]
    )
    assert_matches_subgraph(g, [(0, 1), (1, 2), (1, 3)])
    assert_matches_subgraph(g, [(0, 1), (1, 3)])


def test_cyclic_subsets_are_none():
    ring = cycle_graph(["a", "b", "c", "d"])
    ring_edges = [(u, v) for u, v, _ in ring.edges()]
    assert edge_subset_canonical_form(ring, ring_edges) is None
    # A triangle plus a disjoint edge has one vertex more than edges, the
    # count a tree has, yet it is not a tree.
    g = LabeledGraph(
        ["a"] * 5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1)]
    )
    assert edge_subset_canonical_form(g, [(0, 1), (1, 2), (0, 2), (3, 4)]) is None
    # Two disjoint edges (a forest) are no tree either.
    assert edge_subset_canonical_form(g, [(0, 1), (3, 4)]) is None


def test_contracts_check_what_the_helper_emits(monkeypatch):
    seen = []
    real = contracts.check_canonical_invariance

    def spy(tree, label, rounds=2):
        seen.append(label)
        real(tree, label, rounds)

    monkeypatch.setattr(contracts, "check_canonical_invariance", spy)
    q = path_graph(["a", "b", "c", "a"])
    with contracts.contract_scope(True):
        key, _ = edge_subset_canonical_form(q, [(0, 1), (1, 2), (2, 3)])
    assert key in seen


def test_memo_canonicalizes_each_subset_once(monkeypatch):
    calls = []
    real = SubsetCanonicalizer.form
    monkeypatch.setattr(
        SubsetCanonicalizer,
        "form",
        lambda self, e: calls.append(e) or real(self, e),
    )
    q = cycle_graph(["a", "b", "c"])
    memo = SubsetMemo(q)
    path = frozenset({(0, 1), (1, 2)})
    ring = frozenset({(0, 1), (1, 2), (0, 2)})
    first = memo[path]
    assert memo[path] is first
    assert memo[ring] is None
    assert memo[ring] is None
    assert calls == [path, ring]
