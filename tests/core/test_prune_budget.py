"""Unit tests for the center-prune work budget (latency bound, soundness)."""

import pytest

from repro.core import (
    CenterConstraintProblem,
    TreePiConfig,
    TreePiIndex,
    center_prune,
    check_center_constraints,
)
from repro.exceptions import ConfigError
from repro.core import treepi
from repro.core.partition import Partition
from repro.baselines import SequentialScan
from repro.datasets import extract_query_workload
from repro.mining import SupportFunction

from tests.core.test_center_prune import piece_from_edges
from repro.core import FeatureTree
from repro.graphs import LabeledGraph, path_graph
from repro.mining import MinedPattern


def _two_piece_problem(query):
    """Pieces a-b-c and c-d-e; their centers are located in each graph."""
    pieces = [
        piece_from_edges(query, [(0, 1), (1, 2)]),
        piece_from_edges(query, [(2, 3), (3, 4)]),
    ]
    lookup = {}
    for piece in pieces:
        pattern = MinedPattern(piece.tree, piece.key)
        lookup[piece.key] = FeatureTree.from_mined_pattern(len(lookup), pattern)
    return CenterConstraintProblem.from_partition(query, Partition(pieces), lookup)


@pytest.fixture
def query():
    return path_graph(["a", "b", "c", "d", "e"])


class TestBudget:
    def test_budget_exhaustion_keeps_graph(self, query):
        # Many far-apart decoy centers: with a one-check budget the prune
        # gives up and (soundly) keeps the graph.
        far = path_graph(["a", "b", "c", "z", "z", "z", "c", "d", "e"])
        far.graph_id = 0
        problem = _two_piece_problem(query)
        assert not check_center_constraints(problem, far, 0).keep  # unbudgeted
        assert check_center_constraints(problem, far, 0, budget=0).keep

    def test_generous_budget_matches_unbudgeted(self, query):
        near = path_graph(["a", "b", "c", "d", "e"])
        near.graph_id = 0
        problem = _two_piece_problem(query)
        assert check_center_constraints(problem, near, 0, budget=10_000).keep
        far = path_graph(["a", "b", "c", "z", "z", "z", "c", "d", "e"])
        far.graph_id = 0
        problem2 = _two_piece_problem(query)
        assert not check_center_constraints(
            problem2, far, 0, budget=10_000
        ).keep

    def test_missing_feature_fails_even_with_budget(self, query):
        graph = path_graph(["a", "b", "c", "d"])  # no c-d-e piece
        graph.graph_id = 99
        problem = _two_piece_problem(query)
        assert not check_center_constraints(problem, graph, 99, budget=0).keep


class TestExplicitOutcome:
    """The three-way outcome: refuted, satisfied or exhausted."""

    def test_satisfied_within_budget(self, query):
        near = path_graph(["a", "b", "c", "d", "e"])
        near.graph_id = 0
        problem = _two_piece_problem(query)
        decision = check_center_constraints(problem, near, 0, budget=10_000)
        assert decision.keep and not decision.exhausted
        assert decision.checks > 0

    def test_refuted_within_budget_is_not_exhausted(self, query):
        far = path_graph(["a", "b", "c", "z", "z", "z", "c", "d", "e"])
        far.graph_id = 0
        problem = _two_piece_problem(query)
        decision = check_center_constraints(problem, far, 0, budget=10_000)
        assert not decision.keep and not decision.exhausted

    def test_exhausted_is_kept_and_flagged(self, query):
        far = path_graph(["a", "b", "c", "z", "z", "z", "c", "d", "e"])
        far.graph_id = 0
        problem = _two_piece_problem(query)
        decision = check_center_constraints(problem, far, 0, budget=0)
        assert decision.keep and decision.exhausted
        # budget=0 means no checks allowed: none were spent.
        assert decision.checks == 0

    def test_missing_feature_refutes_for_free(self, query):
        graph = path_graph(["a", "b", "c", "d"])  # no c-d-e piece
        graph.graph_id = 99
        problem = _two_piece_problem(query)
        decision = check_center_constraints(problem, graph, 99, budget=0)
        assert not decision.keep and not decision.exhausted

    def test_negative_budget_rejected(self, query):
        near = path_graph(["a", "b", "c", "d", "e"])
        near.graph_id = 0
        problem = _two_piece_problem(query)
        with pytest.raises(ConfigError):
            check_center_constraints(problem, near, 0, budget=-1)

    def test_center_prune_reports_exhaustion(self, query):
        far = path_graph(["a", "b", "c", "z", "z", "z", "c", "d", "e"])
        far.graph_id = 0
        problem = _two_piece_problem(query)
        report = center_prune(problem, [0], {0: far}, budget_per_graph=0)
        assert report.survivors == [0]
        assert report.exhausted == 1 and report.refuted == 0


class TestEndToEndWithTinyBudget:
    def test_answers_stay_exact(self, chem_db, monkeypatch):
        # Even a zero budget (pruning always gives up) cannot change the
        # final answers — it only forfeits candidate reduction.
        monkeypatch.setattr(treepi, "CENTER_PRUNE_CHECKS", 0)
        config = TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=2)
        index = TreePiIndex.build(chem_db, config)
        scan = SequentialScan(chem_db)
        exhausted = 0
        for query in extract_query_workload(chem_db, 6, 6, seed=19):
            result = index.query_paper(query)
            assert result.matches == scan.support_set(query)
            exhausted += result.prune_exhausted
        assert exhausted > 0  # the zero cap really was in force
