"""Unit tests for Canonical Reconstruction Forms (Section 5.3.1).

The central theorem: two unions of matched graph pairs are isomorphic iff
their CRFs coincide.  We validate both directions against the explicit
union construction plus the generic isomorphism oracle.
"""

import pytest

from repro.core import canonical_reconstruction_form, union_graph
from repro.graphs import LabeledGraph, are_isomorphic, path_graph, star_graph


@pytest.fixture
def f1():
    """A 2-edge path b-a-b (symmetric: two automorphisms)."""
    return path_graph(["b", "a", "b"])


@pytest.fixture
def f2():
    return path_graph(["c", "a"])


class TestUnionGraph:
    def test_shared_vertex_identified(self, f1, f2):
        union = union_graph(f1, f2, [(1, 1)])  # glue f1's center onto f2's 'a'
        assert union.num_vertices == 4
        assert union.num_edges == 3

    def test_no_shared_vertices(self, f1, f2):
        union = union_graph(f1, f2, [])
        assert union.num_vertices == 5
        assert union.num_edges == 3
        assert not union.is_connected()

    def test_duplicate_edges_collapse(self):
        e = path_graph(["a", "b"])
        union = union_graph(e, e, [(0, 0), (1, 1)])
        assert union.num_edges == 1

    def test_labels_preserved(self, f1, f2):
        union = union_graph(f1, f2, [(1, 1)])
        labels = sorted(map(str, union.vertex_labels()))
        assert labels == ["a", "b", "b", "c"]


class TestCrfTheorem:
    def test_equal_crf_implies_isomorphic_unions(self, f1, f2):
        # Glue f2 onto either symmetric endpoint of f1: the unions are
        # isomorphic, and the CRFs agree because the minimization runs
        # over f1's automorphisms.
        crf_left = canonical_reconstruction_form(f1, f2, [(0, 1)])
        crf_right = canonical_reconstruction_form(f1, f2, [(2, 1)])
        assert crf_left == crf_right
        u_left = union_graph(f1, f2, [(0, 1)])
        u_right = union_graph(f1, f2, [(2, 1)])
        assert are_isomorphic(u_left, u_right)

    def test_different_gluings_differ(self, f1, f2):
        # Gluing onto the center vs an endpoint produces non-isomorphic
        # unions and distinct CRFs.
        crf_center = canonical_reconstruction_form(f1, f2, [(1, 1)])
        crf_end = canonical_reconstruction_form(f1, f2, [(0, 1)])
        assert crf_center != crf_end
        assert not are_isomorphic(
            union_graph(f1, f2, [(1, 1)]), union_graph(f1, f2, [(0, 1)])
        )

    def test_disjoint_union_form(self, f1, f2):
        crf = canonical_reconstruction_form(f1, f2, [])
        assert crf[0] == ((), ())

    def test_two_shared_vertices(self):
        # Star pieces glued along two leaves in either pairing order: the
        # leaf symmetry makes both CRFs (and unions) identical.
        s = star_graph("h", ["x", "x"])
        t = star_graph("g", ["x", "x"])
        crf_a = canonical_reconstruction_form(s, t, [(1, 1), (2, 2)])
        crf_b = canonical_reconstruction_form(s, t, [(1, 2), (2, 1)])
        assert crf_a == crf_b

    def test_includes_component_labels(self, f1, f2):
        crf = canonical_reconstruction_form(f1, f2, [(0, 1)])
        assert isinstance(crf[1], str) and isinstance(crf[2], str)
        assert crf[1] != crf[2]

    def test_exhaustive_small_cases(self):
        # For every pair of gluings of a fixed (s, t) pair, CRF equality
        # must coincide with union isomorphism.
        s = path_graph(["a", "b", "a"])
        t = path_graph(["a", "c"])
        gluings = [[(0, 0)], [(1, 0)], [(2, 0)]]
        for ga in gluings:
            for gb in gluings:
                same_crf = canonical_reconstruction_form(
                    s, t, ga
                ) == canonical_reconstruction_form(s, t, gb)
                same_union = are_isomorphic(
                    union_graph(s, t, ga), union_graph(s, t, gb)
                )
                assert same_crf == same_union, (ga, gb)

