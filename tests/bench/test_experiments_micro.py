"""Micro-scale smoke tests for every experiment runner.

The benchmarks exercise these at real scales; here a deliberately tiny
Scale keeps each figure function under a second so plain ``pytest tests/``
covers the experiment code paths (table shapes, columns, funnels).
"""

import pytest

from repro.bench import (
    ablation_center_prune,
    ablation_maintenance,
    ablation_partition_restarts,
    ablation_shrinking,
    ablation_tree_vs_path_features,
    clear_caches,
    experiment_index_construction,
    experiment_index_size,
    experiment_label_diversity,
    experiment_prune_effectiveness,
    experiment_pruning_performance,
    experiment_query_time,
)
from repro.bench.harness import Scale

MICRO = Scale(
    name="micro",
    db_sizes=(10, 20),
    query_db_size=15,
    queries_per_size=3,
    query_sizes=(3, 5),
    avg_atoms=10,
    eta=3,
)


@pytest.fixture(autouse=True, scope="module")
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestFigureRunners:
    def test_index_size(self):
        table = experiment_index_size(MICRO)
        assert table.columns == ["db_size", "treepi_features", "gindex_features"]
        assert len(table.rows) == 2
        assert all(v > 0 for v in table.column("treepi_features"))

    def test_pruning_performance(self):
        low, high = experiment_pruning_performance(MICRO)
        assert len(low.rows) == len(MICRO.query_sizes)
        assert len(high.rows) == len(MICRO.query_sizes)
        for table in (low, high):
            for dq, tp in zip(
                table.column("avg_Dq"), table.column("treepi_Pq_prime")
            ):
                assert tp >= dq - 1e-9

    def test_prune_effectiveness_chemical(self):
        table = experiment_prune_effectiveness(MICRO, dataset="chemical")
        assert table.rows
        for dq, tp in zip(table.column("avg_Dq"), table.column("treepi_Pq_prime")):
            assert tp >= dq - 1e-9

    def test_prune_effectiveness_synthetic(self):
        table = experiment_prune_effectiveness(MICRO, dataset="synthetic", labels=3)
        assert table.rows

    def test_index_construction(self):
        table = experiment_index_construction(MICRO)
        assert all(v > 0 for v in table.column("treepi_seconds"))
        assert all(v > 0 for v in table.column("gindex_seconds"))

    def test_query_time(self):
        table = experiment_query_time(MICRO)
        assert len(table.rows) == len(MICRO.query_sizes)
        assert all(v > 0 for v in table.column("treepi_ms"))

    def test_query_time_synthetic(self):
        table = experiment_query_time(MICRO, dataset="synthetic")
        assert table.rows


class TestAblationRunners:
    def test_center_prune(self):
        table = ablation_center_prune(MICRO)
        for fo, wp in zip(
            table.column("Pq_filter_only"), table.column("Pq_prime_with_prune")
        ):
            assert wp <= fo + 1e-9

    def test_shrinking(self):
        table = ablation_shrinking(MICRO)
        features = table.column("features")
        assert features == sorted(features, reverse=True)

    def test_partition_restarts(self):
        table = ablation_partition_restarts(MICRO)
        tpq = table.column("avg_TPq_size")
        assert tpq[-1] <= tpq[0] + 1e-9

    def test_tree_vs_path(self):
        table = ablation_tree_vs_path_features(MICRO)
        assert table.column("path_features")[0] <= table.column("tree_features")[0]

    def test_maintenance(self):
        table = ablation_maintenance(MICRO)
        rows = {row[0]: row for row in table.rows}
        assert rows["audit_mismatches"][1] == 0

    def test_verification_strategy(self):
        from repro.bench import ablation_verification_strategy

        table = ablation_verification_strategy(MICRO)
        assert len(table.rows) == len(MICRO.query_sizes)
        assert all(v > 0 for v in table.column("reconstruct_ms"))

    def test_label_diversity(self):
        table = experiment_label_diversity(MICRO)
        assert len(table.rows) == 4
        for c, d in zip(table.column("avg_Pq_prime"), table.column("avg_Dq")):
            assert c >= d - 1e-9

    def test_phase_breakdown(self):
        from repro.bench import experiment_phase_breakdown

        table = experiment_phase_breakdown(MICRO)
        assert len(table.rows) == len(MICRO.query_sizes)
        for rate in table.column("direct_hit_rate"):
            assert 0.0 <= rate <= 1.0

    def test_query_scalability(self):
        from repro.bench import experiment_query_scalability

        table = experiment_query_scalability(MICRO)
        assert len(table.rows) == len(MICRO.db_sizes)
        for tp, dq in zip(table.column("avg_Pq_prime"), table.column("avg_Dq")):
            assert tp >= dq - 1e-9
