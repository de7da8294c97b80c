"""Unit tests for FeatureTree materialization and maintenance hooks."""

import pytest

from repro.core import FeatureTree
from repro.core.feature import mined_centers
from repro.graphs import path_graph
from repro.mining import MinedPattern
from repro.trees import tree_canonical_string


@pytest.fixture
def mined_path3():
    """A 2-edge path pattern with handcrafted embeddings in two graphs."""
    tree = path_graph(["a", "b", "c"])  # center = vertex 1
    pattern = MinedPattern(tree, tree_canonical_string(tree))
    pattern.add_embedding(0, (5, 6, 7))
    pattern.add_embedding(0, (9, 6, 7))   # same center 6
    pattern.add_embedding(2, (1, 2, 3))
    return pattern


class TestFromMinedPattern:
    def test_center_locations_extracted(self, mined_path3):
        assert mined_centers(mined_path3) == {
            0: frozenset({(6,)}),
            2: frozenset({(2,)}),
        }
        assert FeatureTree.from_mined_pattern(0, mined_path3).center == (1,)

    def test_support(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        assert feature.support == 2
        assert feature.support_set() == frozenset({0, 2})

    def test_edge_centered_feature(self):
        tree = path_graph(["a", "b"])  # center = the edge (0, 1)
        pattern = MinedPattern(tree, tree_canonical_string(tree))
        pattern.add_embedding(4, (8, 3))
        feature = FeatureTree.from_mined_pattern(1, pattern)
        assert feature.is_edge_centered
        assert mined_centers(pattern) == {4: frozenset({(3, 8)})}  # sorted
        host = path_graph(["b", "a", "b"])
        assert feature.locate_centers(host) == frozenset({(0, 1), (1, 2)})

    def test_size(self, mined_path3):
        assert FeatureTree.from_mined_pattern(0, mined_path3).size == 2

    def test_centers_in_unknown_graph(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        assert feature.locate_centers(path_graph(["a", "b", "d"])) == frozenset()

    def test_total_locations(self, mined_path3):
        # one center per graph here
        assert sum(len(c) for c in mined_centers(mined_path3).values()) == 2


class TestLocateCenters:
    def test_every_embedding_center(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        # a-b-c twice, sharing nothing, plus a second a on the first b.
        host = path_graph(["a", "b", "c", "x", "c", "b", "a"])
        host.add_edge(host.add_vertex("a"), 1, 1)
        assert feature.locate_centers(host) == frozenset({(1,), (5,)})


class TestMaintenanceHooks:
    def test_add_occurrences(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        feature.add_graph(7)
        assert feature.support == 3
        assert 7 in feature.support_posting()

    def test_add_occurrences_merges(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        feature.add_graph(0)
        assert list(feature.support_posting()) == [0, 2]

    def test_remove_graph(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        feature.remove_graph(0)
        feature.remove_graph(0)
        assert feature.support == 1
        assert list(feature.support_posting()) == [2]
