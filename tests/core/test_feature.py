"""Unit tests for FeatureTree materialization and maintenance hooks."""

import pytest

from repro.core import FeatureTree
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
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        assert feature.center == (1,)
        assert feature.centers_in(0) == frozenset({(6,)})
        assert feature.centers_in(2) == frozenset({(2,)})

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
        assert feature.centers_in(4) == frozenset({(3, 8)})  # sorted

    def test_size(self, mined_path3):
        assert FeatureTree.from_mined_pattern(0, mined_path3).size == 2

    def test_centers_in_unknown_graph(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        assert feature.centers_in(99) == frozenset()

    def test_total_locations(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        assert feature.total_locations() == 2  # one center per graph here


class TestMaintenanceHooks:
    def test_add_occurrences(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        feature.add_occurrences(7, [(4,), (5,)])
        assert feature.support == 3
        assert feature.centers_in(7) == frozenset({(4,), (5,)})

    def test_add_occurrences_merges(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        feature.add_occurrences(0, [(11,)])
        assert feature.centers_in(0) == frozenset({(6,), (11,)})

    def test_add_empty_occurrences_noop(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        feature.add_occurrences(7, [])
        assert 7 not in feature.store.to_mapping()

    def test_remove_graph(self, mined_path3):
        feature = FeatureTree.from_mined_pattern(0, mined_path3)
        assert feature.remove_graph(0)
        assert not feature.remove_graph(0)
        assert feature.support == 1
