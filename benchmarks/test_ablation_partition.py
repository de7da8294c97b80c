"""Ablation A3 — partition restarts δ (Section 5.1's randomized RP).

δ drives only the paper's planner, so every query here runs through
``TreePiIndex.query_paper``.  Expectation: more restarts yield minimum partitions at least as small and
a richer SF_q (better filtering), at a partition-time cost that the
verification savings should offset on large queries.
"""

from conftest import publish

from repro.bench import ablation_partition_restarts, get_database, get_treepi
from repro.datasets import extract_query_workload


def test_ablation_partition_restarts(benchmark, scale):
    table = ablation_partition_restarts(scale)
    publish(table, "ablation_a3_partition_restarts")

    tpq = table.column("avg_TPq_size")
    sfq = table.column("avg_SFq_size")
    # More restarts can only improve (shrink) the minimum partition.
    assert tpq[-1] <= tpq[0] + 1e-9
    # ... and strictly enrich the pooled feature-subtree set.
    assert sfq[-1] >= sfq[0] - 1e-9

    db = get_database("chemical", scale.query_db_size, scale)
    index = get_treepi("chemical", scale.query_db_size, scale, delta=16)
    workload = list(
        extract_query_workload(db, scale.query_sizes[-1], scale.queries_per_size, seed=10)
    )

    def run_high_delta():
        for query in workload:
            index.query_paper(query)

    benchmark.pedantic(run_high_delta, rounds=1, iterations=1)
