"""The query is compiled once per plan and once per cache-lookup probe.

:class:`~repro.graphs.isomorphism.CompiledPattern` holds the matcher's
pattern-only tables.  These tests count its constructions where the
serving path builds it: :meth:`TreePiIndex.verify` (one per plan, only
after a candidate survives label-pair refutation) and the result cache's
hit confirmation (one per probe, whatever the bucket size).
"""

from __future__ import annotations

import pytest

from repro.core import QueryEngine, TreePiConfig, TreePiIndex, query_cache_key
from repro.core import engine as engine_module
from repro.core import treepi as treepi_module
from repro.core.treepi import QueryPlan
from repro.datasets import extract_query_workload, generate_aids_like
from repro.graphs import (
    GraphDatabase,
    LabeledGraph,
    are_isomorphic,
    is_subgraph_isomorphic,
)
from repro.graphs.isomorphism import CompiledPattern, label_pair_refuted
from repro.mining import SupportFunction

CONFIG = TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)


def _counting(monkeypatch, module) -> list:
    """Count the ``CompiledPattern`` constructions ``module`` makes."""
    built: list = []

    class Counting(CompiledPattern):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, "CompiledPattern", Counting)
    return built


@pytest.fixture(scope="module")
def index():
    return TreePiIndex.build(generate_aids_like(20, avg_atoms=12, seed=11), CONFIG)


def test_one_compile_per_plan(index, monkeypatch):
    db = index.database
    plan = next(
        plan
        for plan in (
            index.plan(q)
            for q in extract_query_workload(db, 3, 40, seed=3)
        )
        if plan.result is None
        and sum(
            not label_pair_refuted(plan.query, db[gid]) for gid in plan.survivors
        )
        >= 3
    )
    built = _counting(monkeypatch, treepi_module)
    answers = [index.verify(plan, gid) for gid in plan.survivors]
    assert built == [plan.query]
    assert plan.compiled is not None and plan.compiled.pattern is plan.query
    # The shared tables give the per-call matcher's answers.
    assert answers == [
        is_subgraph_isomorphic(plan.query, db[gid]) for gid in plan.survivors
    ]


def test_refuted_survivors_compile_nothing(monkeypatch):
    # Every target has the query's single edges and enough edges, but
    # none has two N-C incidences, so label-pair counts refute them all.
    db = GraphDatabase(
        [
            LabeledGraph(["N", "C", "C", "C"], [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
            for _ in range(3)
        ]
    )
    index = TreePiIndex.build(db, CONFIG)
    query = LabeledGraph(["C", "N", "C"], [(0, 1, 1), (1, 2, 1)])
    survivors = db.graph_ids()
    assert all(label_pair_refuted(query, db[gid]) for gid in survivors)
    plan = QueryPlan(query=query, survivors=list(survivors))
    built = _counting(monkeypatch, treepi_module)
    assert not any(index.verify(plan, gid) for gid in survivors)
    assert built == []
    assert plan.compiled is None


#: Four connected single-label graphs on six vertices and seven edges with
#: one cache key (label-pair counts and degree sequence 2,2,2,2,3,3) but
#: pairwise non-isomorphic.
_SAME_KEY_EDGES = [
    [(0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (3, 5)],
    [(0, 1), (0, 2), (0, 5), (1, 4), (2, 3), (2, 4), (3, 5)],
    [(0, 1), (0, 3), (1, 2), (1, 3), (2, 5), (3, 4), (4, 5)],
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (4, 5)],
]


def _same_key_graphs():
    return [
        LabeledGraph(["a"] * 6, [(u, v, 1) for u, v in edges])
        for edges in _SAME_KEY_EDGES
    ]


def test_cache_probe_compiles_once_per_lookup(monkeypatch):
    graphs = _same_key_graphs()
    assert len({query_cache_key(g) for g in graphs}) == 1
    assert query_cache_key(graphs[0]).startswith("g:")
    for i, g in enumerate(graphs):
        for h in graphs[i + 1 :]:
            assert not are_isomorphic(g, h)
    engine = QueryEngine(TreePiIndex.build(GraphDatabase(graphs), CONFIG))
    for g in graphs[:3]:
        engine.query(g)
    assert engine.cached_results == 3  # one bucket of three classes
    built = _counting(monkeypatch, engine_module)
    probe = graphs[3]
    result = engine.query(probe)
    assert built == [probe]  # one compile for three confirmations
    assert result.matches == frozenset({3})
    assert engine.stats.cache_hits == 0
    assert engine.cached_results == 4


def test_cached_entries_keep_no_compiled_tables():
    graphs = _same_key_graphs()
    engine = QueryEngine(TreePiIndex.build(GraphDatabase(graphs), CONFIG))
    for g in graphs:
        engine.query(g)
    entries = engine._cache.bucket(query_cache_key(graphs[0]))
    assert len(entries) == 4
    assert all(entry._compiled is None for entry in entries)
    assert all(entry.query is not g for entry in entries for g in graphs)
