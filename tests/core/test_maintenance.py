"""Unit tests for insert/delete maintenance (Section 7.1)."""

import pytest

from repro.baselines import SequentialScan
from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import extract_query_workload, generate_aids_like
from repro.graphs import GraphDatabase
from repro.mining import SupportFunction


@pytest.fixture
def fresh_index():
    db = generate_aids_like(16, avg_atoms=12, seed=21)
    config = TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=2)
    return TreePiIndex.build(db, config)


@pytest.fixture
def extra_graphs():
    donor = generate_aids_like(6, avg_atoms=12, seed=77)
    return [donor[gid] for gid in donor.graph_ids()]


class TestInsert:
    def test_inserted_graph_is_queryable(self, fresh_index, extra_graphs):
        new = extra_graphs[0]
        gid = fresh_index.insert(new)
        assert gid in fresh_index.database
        scan = SequentialScan(fresh_index.database)
        for query in extract_query_workload(fresh_index.database, 4, 6, seed=5):
            assert fresh_index.query(query).matches == scan.support_set(query)

    def test_insert_updates_feature_supports(self, fresh_index, extra_graphs):
        before = {f.key: f.support for f in fresh_index.features}
        gid = fresh_index.insert(extra_graphs[1])
        grew = [
            f.key
            for f in fresh_index.features
            if f.support == before[f.key] + 1 and gid in f.support_set()
        ]
        assert grew  # a molecule-like graph must contain some feature

    def test_insert_records_centers(self, fresh_index, extra_graphs):
        gid = fresh_index.insert(extra_graphs[2])
        touched = [f for f in fresh_index.features if gid in f.support_set()]
        assert touched
        graph = fresh_index.database[gid]
        for feature in touched:
            centers = feature.locate_centers(graph)
            assert centers  # a recorded support id is a real occurrence
            for center in centers:
                assert all(0 <= v < graph.num_vertices for v in center)

    def test_churn_accumulates(self, fresh_index, extra_graphs):
        assert fresh_index.churn_fraction == 0
        fresh_index.insert(extra_graphs[0])
        assert fresh_index.churn_fraction == pytest.approx(1 / 16)
        assert not fresh_index.needs_rebuild()


class TestNovelEdgeTypes:
    def test_insert_graph_with_unseen_edge_type(self, fresh_index):
        """Regression: a novel edge type must become a feature on insert.

        Without that, the query path's missing-single-edge emptiness proof
        would wrongly return ∅ for queries touching the new edge type.
        """
        from repro.graphs import LabeledGraph

        exotic = LabeledGraph(
            ["Xx", "Yy", "C"], [(0, 1, 77), (1, 2, 1)]
        )
        gid = fresh_index.insert(exotic)
        probe = LabeledGraph(["Xx", "Yy"], [(0, 1, 77)])
        result = fresh_index.query(probe)
        assert result.matches == frozenset({gid})

    def test_novel_type_feature_registered(self, fresh_index):
        from repro.graphs import LabeledGraph
        from repro.trees import tree_canonical_string

        exotic = LabeledGraph(["Qq", "Qq"], [(0, 1, 42)])
        before = fresh_index.feature_count()
        fresh_index.insert(exotic.copy())
        assert fresh_index.feature_count() == before + 1
        key = tree_canonical_string(exotic)
        assert fresh_index.has_feature(key)

    def test_second_insert_reuses_feature(self, fresh_index):
        from repro.graphs import LabeledGraph

        exotic = LabeledGraph(["Qq", "Qq"], [(0, 1, 42)])
        gid1 = fresh_index.insert(exotic.copy())
        before = fresh_index.feature_count()
        gid2 = fresh_index.insert(exotic.copy())
        assert fresh_index.feature_count() == before
        result = fresh_index.query(exotic)
        assert result.matches == frozenset({gid1, gid2})


class TestMaintenanceVsRebuild:
    def test_supports_match_rebuild(self, fresh_index, extra_graphs):
        """After churn, maintained feature supports equal a fresh rebuild's.

        (Restricted to features both indexes have: a rebuild may select a
        different feature *set*, but shared features must agree exactly.)
        """
        for graph in extra_graphs[:3]:
            fresh_index.insert(graph.copy())
        fresh_index.delete(fresh_index.database.graph_ids()[1])
        rebuilt = fresh_index.rebuild()
        rebuilt_lookup = {f.key: f for f in rebuilt.features}
        for feature in fresh_index.features:
            twin = rebuilt_lookup.get(feature.key)
            if twin is None:
                continue
            assert feature.support_set() == twin.support_set(), feature.key


class TestDelete:
    def test_deleted_graph_disappears_from_answers(self, fresh_index):
        victim = fresh_index.database.graph_ids()[0]
        fresh_index.delete(victim)
        assert victim not in fresh_index.database
        scan = SequentialScan(fresh_index.database)
        for query in extract_query_workload(fresh_index.database, 3, 6, seed=6):
            result = fresh_index.query(query)
            assert victim not in result.matches
            assert result.matches == scan.support_set(query)

    def test_delete_purges_feature_entries(self, fresh_index):
        victim = fresh_index.database.graph_ids()[1]
        fresh_index.delete(victim)
        for feature in fresh_index.features:
            assert victim not in feature.support_set()

    def test_delete_unknown_raises(self, fresh_index):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            fresh_index.delete(999)


class TestRebuild:
    def test_needs_rebuild_after_quarter_churn(self, fresh_index, extra_graphs):
        # 16 graphs at build: 4 operations cross the 25% line.
        for graph in extra_graphs[:4]:
            fresh_index.insert(graph)
        assert fresh_index.needs_rebuild()

    def test_rebuild_reflects_current_database(self, fresh_index, extra_graphs):
        for graph in extra_graphs[:3]:
            fresh_index.insert(graph)
        fresh_index.delete(fresh_index.database.graph_ids()[0])
        rebuilt = fresh_index.rebuild()
        assert rebuilt.churn_fraction == 0
        scan = SequentialScan(rebuilt.database)
        for query in extract_query_workload(rebuilt.database, 4, 6, seed=9):
            assert rebuilt.query(query).matches == scan.support_set(query)

    def test_mixed_insert_delete_stays_exact(self, fresh_index, extra_graphs):
        scan_queries = extract_query_workload(fresh_index.database, 4, 4, seed=13)
        fresh_index.insert(extra_graphs[0])
        fresh_index.delete(fresh_index.database.graph_ids()[2])
        fresh_index.insert(extra_graphs[1])
        scan = SequentialScan(fresh_index.database)
        for query in scan_queries:
            assert fresh_index.query(query).matches == scan.support_set(query)
