"""Unit tests for the cached per-graph matcher structures (PR 10).

Covers the three invariants of :class:`repro.graphs.matcher_index.
MatcherIndex` — label-pair counts, neighboring-label signatures, and
walk-parity distance matrices — plus the cache lifecycle on
:class:`~repro.graphs.graph.LabeledGraph`: lazy build and mutation
invalidation.
"""

from __future__ import annotations

import pytest

from repro.graphs import LabeledGraph, cycle_graph, path_graph
from repro.graphs.matcher_index import (
    PARITY_INF,
    PARITY_MAX_VERTICES,
    MatcherIndex,
    pair_subsumed,
    parity_bfs,
)


@pytest.fixture
def triangle_index(triangle):
    return triangle.matcher_index()


# ----------------------------------------------------------------------
# label-pair edge index
# ----------------------------------------------------------------------
class TestPairCounts:
    def test_directed_incidences_on_triangle(self, triangle_index):
        # C-C-N triangle with edge labels 1,1,2: every undirected edge
        # contributes one incidence per orientation.
        assert triangle_index.pair_counts == {
            ("C", 1, "C"): 2,   # edge (0,1) seen from both ends
            ("C", 1, "N"): 1,   # edge (1,2) from the C side
            ("N", 1, "C"): 1,   # edge (1,2) from the N side
            ("C", 2, "N"): 1,   # edge (2,0) from the C side
            ("N", 2, "C"): 1,   # edge (2,0) from the N side
        }

    def test_total_count_is_twice_the_edges(self, chem_db):
        for graph in chem_db:
            counts = graph.matcher_index().pair_counts
            assert sum(counts.values()) == 2 * graph.num_edges

    def test_pair_subsumed_accepts_true_subgraph(self, triangle):
        edge = LabeledGraph(["C", "N"], [(0, 1, 2)])
        assert pair_subsumed(edge.matcher_index(), triangle.matcher_index())

    def test_pair_subsumed_refutes_missing_triple(self, triangle):
        edge = LabeledGraph(["C", "N"], [(0, 1, 3)])  # no C-N edge labeled 3
        assert not pair_subsumed(edge.matcher_index(), triangle.matcher_index())

    def test_pair_subsumed_refutes_count_excess(self, triangle):
        # Two C-C edges of label 1 need two distinct target incidence
        # pairs; the triangle has only one such edge.
        path = path_graph(["C", "C", "C"], edge_label=1)
        assert not pair_subsumed(path.matcher_index(), triangle.matcher_index())

    def test_pair_subsumed_is_not_symmetric(self, triangle):
        edge = LabeledGraph(["C", "N"], [(0, 1, 2)])
        assert not pair_subsumed(triangle.matcher_index(), edge.matcher_index())


# ----------------------------------------------------------------------
# neighboring-label bitset signatures
# ----------------------------------------------------------------------
class TestSignatures:
    def test_label_bits_are_distinct_powers_of_two(self, triangle_index):
        vbits = triangle_index.vlabel_bits
        assert set(vbits) == {"C", "N"}
        assert sorted(vbits.values()) == [1, 2]
        ebits = triangle_index.elabel_bits
        assert set(ebits) == {1, 2}
        assert sorted(ebits.values()) == [1, 2]

    def test_signatures_record_incident_labels(self, triangle, triangle_index):
        vbits = triangle_index.vlabel_bits
        ebits = triangle_index.elabel_bits
        # Vertex 0 (C) touches C via label 1 and N via label 2.
        assert triangle_index.nbr_vsig[0] == vbits["C"] | vbits["N"]
        assert triangle_index.nbr_esig[0] == ebits[1] | ebits[2]
        # Vertex 1 (C) touches C and N, both via label 1.
        assert triangle_index.nbr_vsig[1] == vbits["C"] | vbits["N"]
        assert triangle_index.nbr_esig[1] == ebits[1]

    def test_isolated_vertex_has_empty_signature(self):
        g = LabeledGraph(["a", "a"], [])
        idx = g.matcher_index()
        assert idx.nbr_vsig == [0, 0]
        assert idx.nbr_esig == [0, 0]
        assert idx.elabel_bits == {}

    def test_none_labels_are_first_class(self):
        g = LabeledGraph(["a", None], [(0, 1, None)])
        idx = g.matcher_index()
        assert None in idx.vlabel_bits
        assert None in idx.elabel_bits
        assert idx.nbr_vsig[0] == idx.vlabel_bits[None]
        assert idx.pair_counts[("a", None, None)] == 1


# ----------------------------------------------------------------------
# walk-parity distance matrices
# ----------------------------------------------------------------------
class TestParityRows:
    def test_path_is_bipartite(self):
        # P3: opposite-part pairs have no even walk, same-part no odd walk.
        g = path_graph(["a", "b", "c"])
        even, odd = g.matcher_index().parity_rows()
        n = 3
        assert even[0 * n + 0] == 0 and odd[0 * n + 0] == PARITY_INF
        assert odd[0 * n + 1] == 1 and even[0 * n + 1] == PARITY_INF
        assert even[0 * n + 2] == 2 and odd[0 * n + 2] == PARITY_INF
        # Walks may repeat edges: 1 -> 0 -> 1 is an even walk of length 2.
        assert even[1 * n + 1] == 0 and odd[1 * n + 1] == PARITY_INF

    def test_odd_cycle_has_both_parities_everywhere(self):
        g = cycle_graph(["a"] * 5)
        even, odd = g.matcher_index().parity_rows()
        n = 5
        for s in range(n):
            for t in range(n):
                assert even[s * n + t] < PARITY_INF
                assert odd[s * n + t] < PARITY_INF
        # Adjacent pair: odd walk is the edge, even walk goes around.
        assert odd[0 * n + 1] == 1
        assert even[0 * n + 1] == 4
        # Self: zero-length even walk, full-lap odd walk.
        assert even[0] == 0 and odd[0] == 5

    def test_matrices_are_symmetric(self):
        g = LabeledGraph(
            ["a"] * 6,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (3, 4, 1), (4, 5, 1)],
        )
        even, odd = g.matcher_index().parity_rows()
        n = g.num_vertices
        for s in range(n):
            for t in range(n):
                assert even[s * n + t] == even[t * n + s]
                assert odd[s * n + t] == odd[t * n + s]

    def test_disconnected_pairs_are_unreachable(self):
        g = LabeledGraph(["a", "a", "a", "a"], [(0, 1, 1), (2, 3, 1)])
        even, odd = g.matcher_index().parity_rows()
        n = 4
        for s, t in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert even[s * n + t] == PARITY_INF
            assert odd[s * n + t] == PARITY_INF

    def test_size_gate_returns_none(self):
        g = LabeledGraph(["a"] * (PARITY_MAX_VERTICES + 1), [])
        assert g.matcher_index().parity_rows() is None

    def test_rows_are_built_once(self, triangle_index):
        assert triangle_index.parity_rows() is triangle_index.parity_rows()

    def test_bfs_from_some_sources_gives_their_rows(self):
        g = LabeledGraph(
            ["a"] * 6,
            [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
        )
        even, odd = g.matcher_index().parity_rows()
        n = g.num_vertices
        sources = [4, 0, 2]
        some_even, some_odd = parity_bfs(g._adj, sources)
        assert len(some_even) == len(some_odd) == len(sources) * n
        for r, s in enumerate(sources):
            assert some_even[r * n:(r + 1) * n] == even[s * n:(s + 1) * n]
            assert some_odd[r * n:(r + 1) * n] == odd[s * n:(s + 1) * n]


# ----------------------------------------------------------------------
# cache lifecycle on LabeledGraph
# ----------------------------------------------------------------------
class TestCacheLifecycle:
    def test_index_is_cached(self, triangle):
        assert triangle.matcher_index() is triangle.matcher_index()

    def test_add_edge_invalidates(self, triangle):
        before = triangle.matcher_index()
        triangle.add_vertex("C")
        triangle.add_edge(0, 3, 1)
        after = triangle.matcher_index()
        assert after is not before
        assert after.pair_counts[("C", 1, "C")] == 4
        assert after.num_vertices == 4

    def test_add_vertex_invalidates(self, triangle):
        before = triangle.matcher_index()
        triangle.add_vertex("O")
        assert triangle.matcher_index() is not before

    def test_direct_construction_matches_cached(self, triangle):
        direct = MatcherIndex(triangle)
        cached = triangle.matcher_index()
        assert direct.pair_counts == cached.pair_counts
        assert direct.nbr_vsig == cached.nbr_vsig
