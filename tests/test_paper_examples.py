"""Fidelity tests recreating the paper's running example end to end.

Figures 1–7 of the paper walk one database and one query through the
whole pipeline; these tests build analogous structures and check each
claimed behaviour: frequent trees exist at the claimed supports, the
query partitions into feature trees, the center-distance argument prunes
a decoy graph, and the final answer matches brute force.
"""

import random

import pytest

from repro.baselines import SequentialScan
from repro.core import (
    CenterConstraintProblem,
    TreePiConfig,
    TreePiIndex,
    check_center_constraints,
    run_partitions,
)
from repro.core.partition import Partition
from repro.graphs import GraphDatabase, LabeledGraph, path_graph
from repro.mining import FrequentSubtreeMiner, SupportFunction
from repro.trees import tree_canonical_string

from tests.conftest import make_paper_like_db


@pytest.fixture(scope="module")
def db():
    return make_paper_like_db()


@pytest.fixture(scope="module")
def index(db):
    return TreePiIndex.build(
        db, TreePiConfig(SupportFunction(alpha=3, beta=1.0, eta=4), gamma=1.0, seed=1)
    )


@pytest.fixture
def query():
    """A 4-edge query drawn from the shared backbone (supported by all 3)."""
    return LabeledGraph(
        ["a", "a", "b", "a", "b"],
        [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 1)],
    )


class TestFrequentTrees:
    """Figure 3: frequent trees of the example database."""

    def test_backbone_edges_are_3_frequent(self, db):
        result = FrequentSubtreeMiner(db, SupportFunction(1, 1.0, 1)).mine()
        aa = tree_canonical_string(path_graph(["a", "a"]))
        assert result.patterns[aa].support == 3

    def test_two_edge_backbone_tree_frequent(self, db):
        result = FrequentSubtreeMiner(db, SupportFunction(2, 1.0, 2)).mine()
        aab = tree_canonical_string(path_graph(["a", "a", "b"]))
        assert result.patterns[aab].support == 3

    def test_larger_trees_lose_support(self, db):
        result = FrequentSubtreeMiner(db, SupportFunction(4, 1.0, 4)).mine()
        supports = [p.support for p in result.patterns.values() if p.size == 4]
        assert supports and min(supports) < 3  # some size-4 trees are rarer


class TestPartition:
    """Figure 6: the query has a Feature-Tree-Partition."""

    def test_query_partitions_into_features(self, index, query):
        run = run_partitions(
            query, index.has_feature, delta=query.num_edges, rng=random.Random(0)
        )
        assert run.best.size >= 1
        for piece in run.best.pieces:
            assert index.has_feature(piece.key)
            assert piece.tree.is_tree()

    def test_partition_covers_query(self, index, query):
        run = run_partitions(
            query, index.has_feature, delta=4, rng=random.Random(1)
        )
        covered = sorted(e for p in run.best.pieces for e in p.edges)
        expected = sorted((u, v) for u, v, _ in query.edges())
        assert covered == expected


class TestCenterDistancePruning:
    """Figure 7: a graph with the right pieces at the wrong distance."""

    def test_decoy_graph_pruned(self, query):
        from repro.core import FeatureTree
        from repro.graphs import subgraph_monomorphisms
        from repro.mining import MinedPattern
        from repro.trees import center_of_embedding

        from tests.core.test_center_prune import piece_from_edges

        # Split the query into two 2-edge halves.
        pieces = [
            piece_from_edges(query, [(0, 1), (1, 2)]),
            piece_from_edges(query, [(2, 3), (3, 4)]),
        ]
        # Decoy: both halves occur, separated by a long bridge (the
        # Figure 7(a) situation: right pieces, wrong center distance).
        decoy = LabeledGraph(
            ["a", "a", "b", "x", "x", "x", "b", "a", "b"],
            [
                (0, 1, 1), (1, 2, 1),            # first half a-a-b
                (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1),  # long bridge
                (6, 7, 2), (7, 8, 1),            # second half b-a-b
            ],
        )
        decoy.graph_id = 99
        lookup = {}
        for piece in pieces:
            pattern = MinedPattern(piece.tree, piece.key)
            for emb in subgraph_monomorphisms(piece.tree, decoy):
                pattern.add_embedding(
                    99, tuple(emb[v] for v in piece.tree.vertices())
                )
            lookup.setdefault(
                piece.key, FeatureTree.from_mined_pattern(len(lookup), pattern)
            )
        # Both halves really do occur in the decoy ...
        assert all(lookup[p.key].locate_centers(decoy) for p in pieces)
        problem = CenterConstraintProblem.from_partition(
            query, Partition(pieces), lookup
        )
        # ... but no placement satisfies the center distance constraint.
        assert not check_center_constraints(problem, decoy, 99).keep


class TestEndToEnd:
    """Section 3's problem statement: the query's support set, exactly."""

    def test_query_answer(self, db, index, query):
        scan = SequentialScan(db)
        assert index.query(query).matches == scan.support_set(query)

    def test_all_small_queries_exact(self, db, index):
        scan = SequentialScan(db)
        rng = random.Random(5)
        from repro.datasets.queries import extract_query

        for _ in range(15):
            q = extract_query(db, rng.randint(1, 5), rng)
            assert index.query(q).matches == scan.support_set(q)
