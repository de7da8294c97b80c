"""Unit tests for Center Distance Constraint pruning (Algorithm 2).

The scenario mirrors the paper's Figure 7: a query partitioned into two
feature subtrees whose centers are 2 apart; a candidate containing both
pieces at center distance 4 violates the constraint and is pruned, while
one at distance 2 survives.  The features store no locations: the
problem finds them in each graph passed in.
"""

import pytest

from repro.core import (
    CenterConstraintProblem,
    FeatureTree,
    center_prune,
    check_center_constraints,
)
from repro.core.partition import Partition, QueryPiece
from repro.graphs import LabeledGraph, path_graph
from repro.mining import MinedPattern
from repro.trees import tree_canonical_string, tree_center


@pytest.fixture
def query():
    return path_graph(["a", "b", "c", "d", "e"])


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


@pytest.fixture
def pieces(query):
    return [
        piece_from_edges(query, [(0, 1), (1, 2)]),  # a-b-c, center at q-vertex 1
        piece_from_edges(query, [(2, 3), (3, 4)]),  # c-d-e, center at q-vertex 3
    ]


@pytest.fixture
def graphs():
    near = path_graph(["a", "b", "c", "d", "e"])          # centers at 1 and 3
    near.graph_id = 0
    far = path_graph(["a", "b", "c", "z", "c", "d", "e"])  # centers at 1 and 5
    far.graph_id = 1
    return {0: near, 1: far}


@pytest.fixture
def problem(query, pieces, graphs):
    lookup = {}
    for piece in pieces:
        pattern = MinedPattern(piece.tree, piece.key)
        feature = FeatureTree.from_mined_pattern(len(lookup), pattern)
        lookup[piece.key] = feature
    return CenterConstraintProblem.from_partition(
        query, Partition(pieces), lookup
    )


class TestProblemConstruction:
    def test_query_distances(self, problem):
        assert problem.distances[0][1] == 2
        assert problem.distances[1][0] == 2
        assert problem.distances[0][0] == 0

    def test_centers_are_located_and_memoized(self, problem, graphs):
        assert problem.centers(0, 1, graphs[1]) == ((1,),)
        assert problem.centers(1, 1, graphs[1]) == ((5,),)
        # Kept for the query: a second ask does not search again.
        assert problem.centers(1, 1, graphs[0]) == ((5,),)


class TestConstraintCheck:
    def test_near_graph_satisfies(self, problem, graphs):
        assert check_center_constraints(problem, graphs[0], 0).keep

    def test_far_graph_pruned(self, problem, graphs):
        # Center distance 4 in the graph > 2 in the query (Figure 7(a)).
        assert not check_center_constraints(problem, graphs[1], 1).keep

    def test_graph_missing_a_feature_fails(self, problem):
        partial = path_graph(["a", "b", "c", "d"])  # no c-d-e piece
        assert not check_center_constraints(problem, partial, 99).keep

    def test_far_graph_has_no_assignment(self, problem, graphs):
        # Refuted by a proof, not kept because a budget ran out.
        decision = check_center_constraints(problem, graphs[1], 1)
        assert not decision.keep and not decision.exhausted


class TestCenterPrune:
    def test_prunes_only_violators(self, problem, graphs):
        report = center_prune(problem, [0, 1], graphs)
        assert report.survivors == [0]
        assert report.refuted == 1
        assert report.exhausted == 0

    def test_empty_candidates(self, problem, graphs):
        report = center_prune(problem, [], graphs)
        assert report.survivors == [] and report.exhausted == 0


class TestMultipleLocations:
    def test_any_satisfying_combination_suffices(self, problem, graphs):
        # Two centers for piece 0: b1 is 4 from piece 1's center d5 (too
        # far), the added branch a8-b7-c4 puts one 2 away (close enough).
        both = graphs[1].copy()
        b7 = both.add_vertex("b")
        a8 = both.add_vertex("a")
        both.add_edge(4, b7, both.edge_label(4, 5))
        both.add_edge(b7, a8, both.edge_label(0, 1))
        assert problem.centers(0, 2, both) == ((1,), (7,))
        assert check_center_constraints(problem, both, 2).keep
