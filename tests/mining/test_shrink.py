"""Unit tests for γ-shrinking of the feature-tree set."""

import pytest

from repro.graphs import GraphDatabase, LabeledGraph, path_graph
from repro.mining import (
    FrequentSubtreeMiner,
    SupportFunction,
    leaf_removed_subtrees,
    shrink_feature_set,
)
from repro.trees import tree_canonical_string


class TestLeafRemovedSubtrees:
    def test_single_edge_has_none(self):
        assert leaf_removed_subtrees(path_graph(["a", "b"])) == []

    def test_path_three(self):
        subs = leaf_removed_subtrees(path_graph(["a", "b", "c"]))
        keys = {k for k, _ in subs}
        assert keys == {
            tree_canonical_string(path_graph(["a", "b"])),
            tree_canonical_string(path_graph(["b", "c"])),
        }

    def test_symmetric_removals_deduplicate(self):
        subs = leaf_removed_subtrees(path_graph(["a", "a", "a"]))
        assert len(subs) == 1

    def test_star_removals(self):
        star = LabeledGraph(["h", "x", "x", "y"], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        subs = leaf_removed_subtrees(star)
        assert len(subs) == 2  # drop an x-leaf (one class) or the y-leaf

    def test_subtrees_are_valid_trees(self, small_tree):
        for _, sub in leaf_removed_subtrees(small_tree):
            assert sub.is_tree()
            assert sub.num_edges == small_tree.num_edges - 1


class TestShrinkFeatureSet:
    def _mined(self, db, eta=3):
        return FrequentSubtreeMiner(db, SupportFunction(eta, 1.0, eta)).mine()

    def test_redundant_pattern_removed(self):
        # Two identical graphs: every big tree has the same support set as
        # its subtrees' intersection → ratio 1 → removed at gamma >= 1.
        g = path_graph(["a", "b", "c", "d"])
        db = GraphDatabase([g, g.copy()])
        result = self._mined(db)
        report = shrink_feature_set(result.patterns, gamma=1.0)
        key = tree_canonical_string(g)
        assert key in report.removed
        assert report.removed[key] == pytest.approx(1.0)

    def test_single_edges_never_removed(self):
        g = path_graph(["a", "b", "c", "d"])
        db = GraphDatabase([g, g.copy()])
        result = self._mined(db)
        report = shrink_feature_set(result.patterns, gamma=100.0)
        for pattern in report.kept.values():
            pass
        kept_sizes = {p.size for p in report.kept.values()}
        assert 1 in kept_sizes
        removed_keys = set(report.removed)
        for key, pattern in result.patterns.items():
            if pattern.size == 1:
                assert key not in removed_keys

    def test_discriminative_pattern_kept(self):
        # b-a-c appears only in g1, while its subtrees a-b and a-c appear
        # in three graphs each → ratio 3 > gamma → keep.
        g1 = LabeledGraph(["a", "b", "c"], [(0, 1, 1), (0, 2, 1)])
        g2 = LabeledGraph(["a", "b", "x", "a", "c"], [(0, 1, 1), (0, 2, 1), (3, 4, 1)])
        g3 = LabeledGraph(["a", "b", "x", "a", "c"], [(0, 1, 1), (0, 2, 1), (3, 4, 1)])
        db = GraphDatabase([g1, g2, g3])
        result = self._mined(db, eta=2)
        report = shrink_feature_set(result.patterns, gamma=1.5)
        key = tree_canonical_string(g1)
        assert key in report.kept

    def test_gamma_monotonicity(self, chem_db):
        result = FrequentSubtreeMiner(chem_db, SupportFunction(2, 2.0, 3)).mine()
        sizes = [
            len(shrink_feature_set(result.patterns, gamma).kept)
            for gamma in (1.0, 1.5, 2.0, 3.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_report_counts(self, chem_db):
        result = FrequentSubtreeMiner(chem_db, SupportFunction(2, 2.0, 3)).mine()
        report = shrink_feature_set(result.patterns, gamma=1.2)
        assert report.removed_count == len(report.removed)
        assert len(report.kept) + report.removed_count == len(result.patterns)

    def test_parents_are_the_leaf_removals_of_every_multi_edge_tree(self, chem_db):
        result = FrequentSubtreeMiner(chem_db, SupportFunction(2, 2.0, 3)).mine()
        report = shrink_feature_set(result.patterns, gamma=1.2)
        multi = {k for k, p in result.patterns.items() if p.size >= 2}
        assert set(report.parents) == multi
        for key in multi:
            expected = {k for k, _ in leaf_removed_subtrees(result.patterns[key].graph)}
            assert set(report.parents[key]) == expected
            assert expected <= set(result.patterns)
