"""Unit tests for the randomized Feature-Tree-Partition (Section 5.1)."""

import random

import pytest

from repro.core import random_partition, run_partitions
from repro.core.partition import SubsetMemo
from repro.graphs import (
    LabeledGraph,
    cycle_graph,
    edge_key,
    is_subgraph_isomorphic,
    path_graph,
)
from repro.trees import tree_canonical_string


def everything_is_feature(key: str) -> bool:
    return True


def nothing_is_feature(key: str) -> bool:
    return False


class TestRandomPartition:
    def test_whole_tree_is_single_piece_when_feature(self, small_tree, rng):
        partition = random_partition(small_tree, everything_is_feature, rng)
        assert partition.size == 1
        assert partition.pieces[0].key == tree_canonical_string(small_tree)

    def test_no_features_splits_to_single_edges(self, small_tree, rng):
        partition = random_partition(small_tree, nothing_is_feature, rng)
        assert partition.size == small_tree.num_edges
        assert all(p.size == 1 for p in partition.pieces)

    def test_pieces_cover_all_edges_disjointly(self, rng):
        q = cycle_graph(["a", "b", "c", "d", "e"])
        for _ in range(20):
            partition = random_partition(q, everything_is_feature, rng)
            covered = [e for p in partition.pieces for e in p.edges]
            assert sorted(covered) == sorted(
                edge_key(u, v) for u, v, _ in q.edges()
            )
            assert len(covered) == len(set(covered))

    def test_cyclic_query_pieces_are_trees(self, rng):
        q = cycle_graph(["a"] * 6)
        for _ in range(20):
            partition = random_partition(q, everything_is_feature, rng)
            for piece in partition.pieces:
                assert piece.tree.is_tree()

    def test_pieces_are_subgraphs_of_query(self, rng):
        q = cycle_graph(["a", "b"] * 3)
        partition = random_partition(q, everything_is_feature, rng)
        for piece in partition.pieces:
            assert is_subgraph_isomorphic(piece.tree, q)

    def test_to_query_maps_labels_consistently(self, rng):
        q = path_graph(["a", "b", "c", "d", "e"])
        partition = random_partition(q, nothing_is_feature, rng)
        for piece in partition.pieces:
            for pv, qv in piece.to_query.items():
                assert piece.tree.vertex_label(pv) == q.vertex_label(qv)

    def test_center_in_query_consistent(self, rng):
        q = path_graph(["a", "b", "c", "d", "e"])
        partition = random_partition(q, everything_is_feature, rng)
        piece = partition.pieces[0]
        expected = tuple(sorted(piece.to_query[v] for v in piece.center))
        assert piece.center_in_query == expected

    def test_single_edge_query(self, rng):
        q = path_graph(["a", "b"])
        partition = random_partition(q, nothing_is_feature, rng)
        assert partition.size == 1
        assert partition.pieces[0].size == 1

    def test_cache_reuse_is_equivalent(self):
        q = cycle_graph(["a", "b", "c", "a", "b", "c"])
        cache = SubsetMemo(q)
        r1 = random_partition(q, everything_is_feature, random.Random(5), cache)
        r2 = random_partition(q, everything_is_feature, random.Random(5), cache)
        assert [p.edges for p in r1.pieces] == [p.edges for p in r2.pieces]


class TestRunPartitions:
    def test_best_is_minimum(self, rng):
        q = cycle_graph(["a", "b"] * 3)
        run = run_partitions(q, everything_is_feature, delta=10, rng=rng)
        assert run.best.size <= 3  # a 6-cycle splits into >= 2 tree pieces
        assert run.attempts == 10

    def test_sfq_accumulates_across_runs(self, rng):
        q = cycle_graph(["a", "b", "c", "d"])
        run = run_partitions(q, everything_is_feature, delta=20, rng=rng)
        # SF_q must contain at least the best partition's piece keys.
        for piece in run.best.pieces:
            assert piece.key in run.feature_subtrees
        assert run.sfq_size >= run.best.size - 1  # keys may repeat in a partition

    def test_delta_floor(self, rng):
        q = path_graph(["a", "b"])
        run = run_partitions(q, everything_is_feature, delta=0, rng=rng)
        assert run.attempts == 1

    def test_default_rng_deterministic(self):
        q = cycle_graph(["a", "b"] * 3)
        r1 = run_partitions(q, everything_is_feature, delta=5)
        r2 = run_partitions(q, everything_is_feature, delta=5)
        assert [p.edges for p in r1.best.pieces] == [p.edges for p in r2.best.pieces]

    def test_partial_feature_set(self, rng):
        # Only single edges and 2-edge trees are features: every piece must
        # have size <= 2.
        def small_features(key):
            return key.count("(") <= 3  # 1 node-tuple per vertex: <=3 vertices

        q = path_graph(["a", "b", "c", "d", "e", "f"])
        run = run_partitions(q, small_features, delta=8, rng=rng)
        for piece in run.best.pieces:
            assert piece.size <= 2
