"""The README's quickstart snippet must keep working verbatim."""

from repro import GraphDatabase, LabeledGraph, QueryEngine, TreePiConfig, TreePiIndex
from repro.mining import SupportFunction


def test_readme_quickstart():
    g0 = LabeledGraph(["C", "C", "O"], [(0, 1, 1), (1, 2, 2)])
    g1 = LabeledGraph(["C", "C", "N"], [(0, 1, 1), (1, 2, 1)])
    database = GraphDatabase([g0, g1])

    index = TreePiIndex.build(
        database,
        TreePiConfig(support=SupportFunction(alpha=2, beta=2.0, eta=4), gamma=1.2),
    )

    query = LabeledGraph(["C", "C"], [(0, 1, 1)])
    result = index.query(query)
    assert sorted(result.matches) == [0, 1]
    assert result.candidates_after_filter >= len(result.matches)
    assert result.candidates_after_prune >= len(result.matches)

    # The README's serving-layer lines, executed as written.
    engine = QueryEngine(index, cache_size=128)
    assert engine.query(query).matches == result.matches   # cold, then cached
    assert engine.stats.cache_hits == 0 and engine.query(query) is not None
    assert engine.stats.cache_hits == 1


def test_readme_architecture_paths_exist():
    import pathlib

    root = pathlib.Path(__file__).parent.parent
    for relative in (
        "src/repro/graphs", "src/repro/trees", "src/repro/mining",
        "src/repro/core", "src/repro/baselines", "src/repro/datasets",
        "src/repro/bench", "src/repro/directed",
        "examples/quickstart.py", "DESIGN.md", "EXPERIMENTS.md",
        "docs/PAPER_MAPPING.md", "docs/ALGORITHMS.md", "docs/TUNING.md",
        "docs/REPORT_SMALL.md",
    ):
        assert (root / relative).exists(), relative
