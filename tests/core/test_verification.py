"""Unit tests for reconstruction-based verification (Algorithm 3)."""

import pytest

from repro.core import (
    CenterConstraintProblem,
    FeatureTree,
    VerificationStats,
    verify_candidate,
)
from repro.core.partition import Partition, QueryPiece
from repro.graphs import LabeledGraph, cycle_graph, path_graph
from repro.mining import MinedPattern
from repro.trees import tree_canonical_string, tree_center


def piece_from_edges(query, edges):
    sub, remap = query.subgraph_from_edges(edges)
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


def problem_for(query, piece_edge_sets, graph, graph_id):
    """Build pieces + features whose locations are mined from ``graph``."""
    from repro.graphs import subgraph_monomorphisms

    pieces = [piece_from_edges(query, edges) for edges in piece_edge_sets]
    lookup = {}
    for piece in pieces:
        if piece.key in lookup:
            continue
        pattern = MinedPattern(piece.tree, piece.key)
        for emb in subgraph_monomorphisms(piece.tree, graph):
            pattern.add_embedding(
                graph_id, tuple(emb[v] for v in piece.tree.vertices())
            )
        lookup[piece.key] = FeatureTree.from_mined_pattern(len(lookup), pattern)
    return CenterConstraintProblem.from_partition(query, Partition(pieces), lookup)


class TestVerifyCandidate:
    def test_positive_straight_line(self):
        query = path_graph(["a", "b", "c", "d"])
        graph = path_graph(["x", "a", "b", "c", "d", "y"])
        graph.graph_id = 0
        problem = problem_for(query, [[(0, 1), (1, 2)], [(2, 3)]], graph, 0)
        assert verify_candidate(query, problem, graph, 0)

    def test_negative_pieces_present_but_disconnected(self):
        # Both pieces occur, but never sharing the 'c' vertex: the query
        # path cannot be reconstructed.
        query = path_graph(["a", "b", "c", "d"])
        graph = LabeledGraph(
            ["a", "b", "c", "x", "c", "d"],
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
        )
        graph.graph_id = 0
        problem = problem_for(query, [[(0, 1), (1, 2)], [(2, 3)]], graph, 0)
        assert not verify_candidate(query, problem, graph, 0)

    def test_cyclic_query_needs_cycle_in_graph(self):
        # A square query partitioned into two paths; a plain path graph
        # contains both pieces but not the cycle.
        query = cycle_graph(["a", "b", "a", "b"])
        good = cycle_graph(["a", "b", "a", "b"])
        good.graph_id = 0
        bad = path_graph(["a", "b", "a", "b", "a"])
        bad.graph_id = 1
        piece_sets = [[(0, 1), (1, 2)], [(2, 3), (0, 3)]]
        p_good = problem_for(query, piece_sets, good, 0)
        p_bad = problem_for(query, piece_sets, bad, 1)
        assert verify_candidate(query, p_good, good, 0)
        assert not verify_candidate(query, p_bad, bad, 1)

    def test_injectivity_enforced(self):
        # Query: star with two x-leaves.  Graph: hub with ONE x neighbor —
        # both pieces (edges) embed but must not map onto the same leaf.
        query = LabeledGraph(["h", "x", "x"], [(0, 1, 1), (0, 2, 1)])
        graph = LabeledGraph(["h", "x"], [(0, 1, 1)])
        graph.graph_id = 0
        problem = problem_for(query, [[(0, 1)], [(0, 2)]], graph, 0)
        assert not verify_candidate(query, problem, graph, 0)

    def test_edge_centered_piece_both_orientations(self):
        # Single-edge piece a-a: the anchor must try both orientations.
        query = path_graph(["a", "a", "b"])
        graph = path_graph(["b", "a", "a"])
        graph.graph_id = 0
        problem = problem_for(query, [[(0, 1)], [(1, 2)]], graph, 0)
        assert verify_candidate(query, problem, graph, 0)

    def test_stats_populated(self):
        query = path_graph(["a", "b", "c"])
        graph = path_graph(["a", "b", "c"])
        graph.graph_id = 0
        problem = problem_for(query, [[(0, 1)], [(1, 2)]], graph, 0)
        stats = VerificationStats()
        assert verify_candidate(query, problem, graph, 0, stats)
        assert stats.assignments_tried >= 1
        assert stats.piece_embeddings_enumerated >= 2

    def test_no_locations_fails_fast(self):
        query = path_graph(["a", "b"])
        graph = path_graph(["a", "b"])
        graph.graph_id = 0
        problem = problem_for(query, [[(0, 1)]], graph, 0)
        # A graph the piece does not occur in has no locations at all;
        # with the label-pair prefilter off, that alone refutes it.
        other = path_graph(["a", "c"])
        stats = VerificationStats()
        assert not verify_candidate(
            query, problem, other, 123, stats, prefilter=False
        )
        assert stats.assignments_tried == 0
