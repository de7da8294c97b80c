"""Canonical pre-orders align isomorphic trees (hypothesis).

The subtree miner aligns a duplicate candidate onto its class
representative by pairing the vertices of the two trees' canonical
pre-orders (:meth:`~repro.trees.canonical.SubsetCanonicalizer.form`)
position by position, with no isomorphism search.  For a random tree
and a random renumbering of its vertices, that pairing must be a
bijection that keeps vertex labels, edges and edge labels.  Trees whose
branches repeat (an automorphism swaps them), around a center vertex or
across a center edge, are drawn on purpose: there the pre-orders
choose between equal sibling subtrees.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import LabeledGraph
from repro.mining.shrink import _leaf_removal_keys, leaf_removed_subtrees
from repro.trees.canonical import SubsetCanonicalizer

from tests.property.strategies import EDGE_LABELS, labeled_trees


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


def _assert_pairing_is_isomorphism(tree, rnd):
    perm = list(range(tree.num_vertices))
    rnd.shuffle(perm)
    renumbered = tree.relabeled(perm)
    key, order = _order(tree)
    renumbered_key, renumbered_order = _order(renumbered)
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


@given(labeled_trees(min_vertices=1))
@settings(max_examples=100, deadline=None)
def test_leaf_removal_keys_match_built_subtrees(tree):
    """Shrinking's keys-only leaf removals equal the built subtrees' keys."""
    assert _leaf_removal_keys(tree) == [
        key for key, _ in leaf_removed_subtrees(tree)
    ]
