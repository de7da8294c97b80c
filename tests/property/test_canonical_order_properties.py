"""Canonical orders align isomorphic trees and graphs (hypothesis).

The subtree miner aligns a duplicate candidate onto its class
representative by pairing the vertices of the two trees' canonical
pre-orders (:meth:`~repro.trees.canonical.SubsetCanonicalizer.form`)
position by position, with no isomorphism search.  For a random tree
and a random renumbering of its vertices, that pairing must be a
bijection that keeps vertex labels, edges and edge labels.  Trees whose
branches repeat (an automorphism swaps them), around a center vertex or
across a center edge, are drawn on purpose: there the pre-orders
choose between equal sibling subtrees.

The gIndex miner aligns its candidates the same way, by the discovery
order of a traversal realizing the minimum DFS code
(:func:`~repro.graphs.canonical.canonical_form`).  The same pairing
property is checked on random connected graphs with cycles and on
highly symmetric ones (uniform-label cycles, K4, the triangular prism),
where many traversals realize the minimal code.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import LabeledGraph, cycle_graph
from repro.graphs.canonical import canonical_form
from repro.mining.shrink import _leaf_removal_keys, leaf_removed_subtrees
from repro.trees.canonical import SubsetCanonicalizer

from tests.property.strategies import EDGE_LABELS, connected_graphs, labeled_trees


def _order(tree: LabeledGraph):
    form = SubsetCanonicalizer(tree).form([(u, v) for u, v, _ in tree.edges()])
    assert form is not None
    return form[0], form[2]


@st.composite
def symmetric_trees(draw):
    """Two or three copies of one branch, around a vertex or across an edge."""
    branch = draw(labeled_trees(min_vertices=1, max_vertices=4))
    across_edge = draw(st.booleans())
    copies = 2 if across_edge else draw(st.integers(2, 3))
    elabel = draw(st.sampled_from(EDGE_LABELS))
    labels = [] if across_edge else [draw(st.sampled_from(("a", "b")))]
    tree = LabeledGraph(labels)
    roots = []
    for _ in range(copies):
        offset = tree.num_vertices
        for label in branch.vertex_labels():
            tree.add_vertex(label)
        for u, v, label in branch.edges():
            tree.add_edge(offset + u, offset + v, label)
        roots.append(offset)  # the branch is attached at its vertex 0
    if across_edge:
        tree.add_edge(roots[0], roots[1], elabel)
    else:
        for root in roots:
            tree.add_edge(0, root, elabel)
    return tree


def _assert_pairing_is_isomorphism(tree, rnd, order_of=_order):
    perm = list(range(tree.num_vertices))
    rnd.shuffle(perm)
    renumbered = tree.relabeled(perm)
    key, order = order_of(tree)
    renumbered_key, renumbered_order = order_of(renumbered)
    assert renumbered_key == key
    pairing = dict(zip(renumbered_order, order))
    # A bijection of all vertices ...
    assert sorted(pairing) == list(renumbered.vertices())
    assert sorted(pairing.values()) == list(tree.vertices())
    # ... that keeps vertex labels, edges and edge labels.
    for v, w in pairing.items():
        assert renumbered.vertex_label(v) == tree.vertex_label(w)
    for u, v, label in renumbered.edges():
        assert tree.has_edge(pairing[u], pairing[v])
        assert tree.edge_label(pairing[u], pairing[v]) == label


@given(labeled_trees(min_vertices=2), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_preorder_pairing_is_an_isomorphism(tree, rnd):
    _assert_pairing_is_isomorphism(tree, rnd)


@given(symmetric_trees(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_preorder_pairing_is_an_isomorphism_on_symmetric_trees(tree, rnd):
    _assert_pairing_is_isomorphism(tree, rnd)


def _uniform(num_vertices: int, edges) -> LabeledGraph:
    graph = LabeledGraph(["a"] * num_vertices)
    for u, v in edges:
        graph.add_edge(u, v, 1)
    return graph


K4 = _uniform(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
#: Two triangles joined by a perfect matching.
PRISM = _uniform(
    6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
)
SYMMETRIC_GRAPHS = [cycle_graph(["a"] * n) for n in range(3, 7)] + [K4, PRISM]


@given(
    connected_graphs(min_vertices=3).filter(lambda g: not g.is_tree()),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_dfs_order_pairing_is_an_isomorphism(graph, rnd):
    _assert_pairing_is_isomorphism(graph, rnd, canonical_form)


@given(st.sampled_from(SYMMETRIC_GRAPHS), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_dfs_order_pairing_is_an_isomorphism_on_symmetric_graphs(graph, rnd):
    _assert_pairing_is_isomorphism(graph, rnd, canonical_form)


@given(labeled_trees(min_vertices=1))
@settings(max_examples=100, deadline=None)
def test_leaf_removal_keys_match_built_subtrees(tree):
    """Shrinking's keys-only leaf removals equal the built subtrees' keys."""
    assert _leaf_removal_keys(tree) == [
        key for key, _ in leaf_removed_subtrees(tree)
    ]
