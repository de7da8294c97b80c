"""Ablations A4–A6: tree-vs-path features, maintenance, label diversity."""

from conftest import publish

from repro.bench import (
    ablation_maintenance,
    ablation_tree_vs_path_features,
    ablation_verification_strategy,
    experiment_label_diversity,
    get_database,
    get_treepi,
)
from repro.datasets import extract_query_workload


def test_ablation_verification_strategy(benchmark, scale):
    table = ablation_verification_strategy(scale)
    publish(table, "ablation_a7_verification_strategy")

    reconstruct = table.column("reconstruct_ms")
    direct = table.column("direct_ms")
    assert all(v > 0 for v in reconstruct + direct)
    # The deviation's premise: direct matching wins the smallest size.
    assert direct[0] <= reconstruct[0] * 1.5

    db = get_database("chemical", scale.query_db_size, scale)
    index = get_treepi("chemical", scale.query_db_size, scale)
    workload = list(
        extract_query_workload(db, scale.query_sizes[-1], scale.queries_per_size,
                               seed=71)
    )

    def run_reconstruction():
        for query in workload:
            index.query_paper(query)

    benchmark.pedantic(run_reconstruction, rounds=1, iterations=1)


def test_ablation_tree_vs_path_features(benchmark, scale):
    table = ablation_tree_vs_path_features(scale)
    publish(table, "ablation_a4_tree_vs_path")

    tree_candidates = table.column("tree_Pq_prime")
    path_candidates = table.column("path_Pq_prime")
    # Aggregate claim: tree features filter at least as tightly as paths.
    assert sum(tree_candidates) <= sum(path_candidates) + 1e-9
    # Paths are a strict subset of trees, so the path index is smaller.
    assert table.column("path_features")[0] <= table.column("tree_features")[0]

    db = get_database("chemical", scale.query_db_size, scale)
    paths = get_treepi("chemical", scale.query_db_size, scale, paths_only=True)
    workload = list(
        extract_query_workload(db, scale.query_sizes[-1], scale.queries_per_size,
                               seed=44)
    )

    def run_paths_only():
        for query in workload:
            paths.query(query)

    benchmark.pedantic(run_paths_only, rounds=1, iterations=1)


def test_ablation_maintenance(benchmark, scale):
    table = ablation_maintenance(scale)
    publish(table, "ablation_a5_maintenance")

    rows = {row[0]: row for row in table.rows}
    assert rows["audit_mismatches"][1] == 0  # answers stayed exact
    # A single maintenance op costs far less than one rebuild.
    assert rows["insert"][3] < rows["rebuild"][3]
    assert rows["delete"][3] < rows["rebuild"][3]

    db = get_database("chemical", max(40, scale.query_db_size // 3), scale)
    donor = db[db.graph_ids()[0]].copy()
    index = get_treepi("chemical", max(40, scale.query_db_size // 3), scale)

    def insert_delete_cycle():
        gid = index.insert(donor.copy())
        index.delete(gid)

    benchmark.pedantic(insert_delete_cycle, rounds=3, iterations=1)


def test_label_diversity_sweep(benchmark, scale):
    table = experiment_label_diversity(scale)
    publish(table, "ablation_a6_label_diversity")

    candidates = table.column("avg_Pq_prime")
    dq = table.column("avg_Dq")
    for c, d in zip(candidates, dq):
        assert c >= d - 1e-9
    # The hardest (fewest-label) configuration leaves at least as many
    # false positives after pruning as the easiest one.
    slack = table.column("slack")
    assert slack[0] >= slack[-1] - 1e-9

    db = get_database("synthetic", scale.query_db_size, scale, 3)
    index = get_treepi("synthetic", scale.query_db_size, scale, 3)
    workload = list(
        extract_query_workload(db, scale.query_sizes[1], scale.queries_per_size,
                               seed=81)
    )

    def run_hardest_labels():
        for query in workload:
            index.query(query)

    benchmark.pedantic(run_hardest_labels, rounds=1, iterations=1)
