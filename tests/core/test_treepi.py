"""Unit tests for the TreePiIndex build/query lifecycle."""

import pytest

from repro.baselines import SequentialScan
from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import extract_query_workload
from repro.exceptions import GraphError, IndexError_
from repro.graphs import GraphDatabase, LabeledGraph, path_graph
from repro.mining import SupportFunction
from repro.trees import tree_canonical_string


class TestBuild:
    def test_empty_database_rejected(self, chem_config):
        with pytest.raises(IndexError_):
            TreePiIndex.build(GraphDatabase(), chem_config)

    def test_stats_populated(self, chem_index):
        stats = chem_index.stats
        assert stats.num_features == chem_index.feature_count() > 0
        assert sum(stats.features_by_size.values()) == stats.num_features
        assert stats.build_seconds > 0
        assert stats.total_center_locations > 0
        assert stats.max_feature_size <= 4

    def test_single_edges_always_present(self, chem_db, chem_index):
        # Every edge type occurring in the database must be an indexed
        # feature (the completeness floor).
        for graph in chem_db:
            for u, v, elabel in graph.edges():
                probe = LabeledGraph(
                    [graph.vertex_label(u), graph.vertex_label(v)],
                    [(0, 1, elabel)],
                )
                assert chem_index.has_feature(tree_canonical_string(probe))

    def test_feature_lookup(self, chem_index):
        feature = chem_index.features[0]
        assert chem_index.feature_by_key(feature.key) is feature
        assert chem_index.feature_by_key("missing") is None


class TestQueryValidation:
    def test_empty_query_rejected(self, chem_index):
        with pytest.raises(GraphError):
            chem_index.query(LabeledGraph(["a"]))

    def test_disconnected_query_rejected(self, chem_index):
        q = LabeledGraph(["C", "C", "C", "C"], [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(GraphError):
            chem_index.query(q)


class TestQueryCorrectness:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_matches_sequential_scan(self, chem_db, chem_index, m):
        scan = SequentialScan(chem_db)
        workload = extract_query_workload(chem_db, m, 6, seed=m)
        for query in workload:
            result = chem_index.query(query)
            assert result.matches == scan.support_set(query)

    def test_direct_hit_for_indexed_tree(self, chem_db, chem_index):
        # Take an actual feature tree as the query: exact support set, no
        # verification work at all.
        feature = max(chem_index.features, key=lambda f: f.size)
        result = chem_index.query(feature.tree)
        assert result.direct_hit
        assert result.matches == feature.support_set()
        assert result.phase_seconds.keys() == {"lookup"}

    def test_unknown_edge_gives_empty(self, chem_index):
        q = LabeledGraph(["Zz", "Qq"], [(0, 1, 99)])
        result = chem_index.query(q)
        assert result.matches == frozenset()

    def test_candidate_funnel_is_monotone(self, chem_db, chem_index):
        workload = extract_query_workload(chem_db, 5, 8, seed=3)
        for query in workload:
            r = chem_index.query(query)
            assert len(r.matches) <= r.candidates_after_prune
            if not r.direct_hit:
                assert r.candidates_after_prune <= r.candidates_after_filter

    def test_result_statistics_present(self, chem_db, chem_index):
        workload = extract_query_workload(chem_db, 6, 4, seed=8)
        for query in workload:
            r = chem_index.query(query)
            if r.direct_hit:
                continue
            assert r.partition_size >= 1
            assert r.sfq_size >= 1
            assert r.total_seconds > 0
            assert r.support == len(r.matches)
            assert r.false_positives_after_prune >= 0


class TestCenterPruneToggle:
    def test_disabled_prune_is_still_correct(self, chem_db, chem_config):
        # The serving pipeline never prunes; the paper's does.
        index = TreePiIndex.build(chem_db, chem_config)
        scan = SequentialScan(chem_db)
        for query in extract_query_workload(chem_db, 5, 6, seed=4):
            truth = scan.support_set(query)
            assert index.query(query).matches == truth
            assert index.query_paper(query).matches == truth

    def test_prune_never_increases_candidates(self, chem_db, chem_config):
        index = TreePiIndex.build(chem_db, chem_config)
        for query in extract_query_workload(chem_db, 6, 6, seed=11):
            paper = index.query_paper(query)
            serving = index.query(query)
            if paper.direct_hit:
                continue
            assert serving.candidates_after_prune == serving.candidates_after_filter
            assert paper.candidates_after_filter == serving.candidates_after_filter
            assert paper.candidates_after_prune <= serving.candidates_after_prune


class TestAugmentationToggle:
    def test_augmentation_never_hurts_correctness(self, chem_db, chem_config):
        plain = TreePiIndex.build(
            chem_db,
            TreePiConfig(
                chem_config.support,
                gamma=chem_config.gamma,
                augment_small_subtrees=False,
                seed=chem_config.seed,
            ),
        )
        scan = SequentialScan(chem_db)
        for query in extract_query_workload(chem_db, 5, 6, seed=21):
            assert plain.query(query).matches == scan.support_set(query)
