"""Unit tests for BFS distances and the DistanceOracle."""

import pytest

from repro.graphs import (
    DistanceOracle,
    LabeledGraph,
    bfs_distances,
    cycle_graph,
    diameter,
    eccentricity,
    path_graph,
    shortest_path_length,
)
from repro.graphs.distances import INFINITY


class TestBfs:
    def test_path_distances(self):
        p = path_graph(["a"] * 5)
        assert bfs_distances(p, 0) == [0, 1, 2, 3, 4]

    def test_cycle_wraps(self):
        c = cycle_graph(["a"] * 6)
        assert bfs_distances(c, 0) == [0, 1, 2, 3, 2, 1]

    def test_unreachable_is_infinite(self):
        g = LabeledGraph(["a", "b", "c"], [(0, 1, 1)])
        assert bfs_distances(g, 0)[2] == INFINITY

    def test_shortest_path_length(self):
        p = path_graph(["a"] * 4)
        assert shortest_path_length(p, 0, 3) == 3
        assert shortest_path_length(p, 2, 2) == 0


class TestEccentricityDiameter:
    def test_path_eccentricity(self):
        p = path_graph(["a"] * 5)
        assert eccentricity(p, 2) == 2
        assert eccentricity(p, 0) == 4

    def test_diameter(self):
        assert diameter(path_graph(["a"] * 5)) == 4
        assert diameter(cycle_graph(["a"] * 6)) == 3

    def test_diameter_empty(self):
        assert diameter(LabeledGraph()) == 0


class TestDistanceOracle:
    def test_matches_bfs(self):
        c = cycle_graph(["a"] * 8)
        oracle = DistanceOracle(c)
        for u in c.vertices():
            levels = bfs_distances(c, u)
            for v in c.vertices():
                assert oracle.distance(u, v) == levels[v]

    def test_caches_one_bfs_per_source(self):
        p = path_graph(["a"] * 6)
        oracle = DistanceOracle(p)
        oracle.distance(0, 5)
        assert 0 in oracle._levels
        # Asking the reverse direction reuses the cached source.
        oracle.distance(5, 0)
        assert 5 not in oracle._levels

    def test_set_distance_minimum_over_pairs(self):
        p = path_graph(["a"] * 6)
        oracle = DistanceOracle(p)
        assert oracle.set_distance((0, 1), (4, 5)) == 3
        assert oracle.set_distance((2,), (2, 3)) == 0


class TestCenterDistance:
    """Center distances of Section 5.2.2 through ``set_distance``."""

    def test_vertex_centers(self):
        p = path_graph(["a"] * 7)
        assert DistanceOracle(p).set_distance((0,), (6,)) == 6

    def test_edge_centers_take_minimum(self):
        p = path_graph(["a"] * 6)
        assert DistanceOracle(p).set_distance((0, 1), (3, 4)) == 2

    def test_shared_vertex_is_zero(self):
        p = path_graph(["a"] * 4)
        assert DistanceOracle(p).set_distance((1, 2), (2, 3)) == 0

    def test_explicit_oracle_reused(self):
        p = path_graph(["a"] * 5)
        oracle = DistanceOracle(p)
        assert oracle.set_distance((0,), (4,)) == 4
        assert oracle.set_distance((4,), (0,)) == 4
