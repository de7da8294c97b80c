"""Extension experiments beyond the paper: phase breakdown, N-scalability."""

from conftest import publish

from repro.bench import (
    experiment_phase_breakdown,
    experiment_query_scalability,
    get_database,
    get_treepi,
)
from repro.datasets import extract_query_workload


def test_phase_breakdown(benchmark, scale):
    table = experiment_phase_breakdown(scale)
    publish(table, "extension_phase_breakdown")

    # Every phase time is non-negative and at least one verification entry
    # is non-trivial on non-direct workloads.
    for phase in ("partition", "filter", "verification"):
        assert all(v >= 0 for v in table.column(phase))

    db = get_database("chemical", scale.query_db_size, scale)
    index = get_treepi("chemical", scale.query_db_size, scale)
    workload = list(
        extract_query_workload(db, scale.query_sizes[0], scale.queries_per_size,
                               seed=61)
    )

    def run():
        for query in workload:
            index.query(query)

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_query_scalability(benchmark, scale):
    table = experiment_query_scalability(scale)
    publish(table, "extension_query_scalability")

    treepi = table.column("treepi_ms")
    scan = table.column("scan_ms")
    sizes = table.column("db_size")
    assert all(v > 0 for v in treepi + scan)
    # Sequential scan must grow markedly with N; TreePi markedly slower
    # growth (ratio of growth factors at the endpoints).
    scan_growth = scan[-1] / scan[0]
    treepi_growth = treepi[-1] / max(treepi[0], 1e-9)
    size_growth = sizes[-1] / sizes[0]
    assert scan_growth > size_growth * 0.4      # scan ~linear-ish
    assert treepi_growth < scan_growth * 1.5    # TreePi no worse than scan

    # TreePi beats sequential scan outright at the largest N.
    assert treepi[-1] < scan[-1]

    db = get_database("chemical", scale.db_sizes[-1], scale)
    index = get_treepi("chemical", scale.db_sizes[-1], scale)
    workload = list(
        extract_query_workload(db, scale.query_sizes[1], scale.queries_per_size,
                               seed=62)
    )

    def run_largest():
        for query in workload:
            index.query(query)

    benchmark.pedantic(run_largest, rounds=1, iterations=1)
