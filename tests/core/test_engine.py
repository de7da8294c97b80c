"""Unit tests for :class:`repro.core.engine.QueryEngine`.

Answer correctness is locked down by the differential suite; these tests
pin the serving-layer semantics — cache hits/misses/eviction, exact
confirmation of key matches, generation invalidation on maintenance,
and counter arithmetic.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.scan import SequentialScan
from repro.core import QueryEngine, TreePiConfig, TreePiIndex, query_cache_key
from repro.datasets import extract_query_workload, generate_aids_like
from repro.exceptions import IndexError_
from repro.graphs import GraphDatabase, LabeledGraph, are_isomorphic
from repro.mining import SupportFunction


@pytest.fixture(scope="module")
def db():
    return generate_aids_like(20, avg_atoms=12, seed=11)


@pytest.fixture(scope="module")
def queries(db):
    return list(extract_query_workload(db, 4, 6, seed=3))


def build_index(db):
    return TreePiIndex.build(
        db, TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)
    )


@pytest.fixture
def engine(db):
    return QueryEngine(build_index(db), cache_size=8)


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
def test_cache_key_isomorphic_trees_collide():
    path = LabeledGraph(["a", "b", "c"], [(0, 1, 1), (1, 2, 2)])
    relabeled = LabeledGraph(["c", "b", "a"], [(0, 1, 2), (1, 2, 1)])
    assert query_cache_key(path).startswith("t:")
    assert query_cache_key(path) == query_cache_key(relabeled)


def test_cache_key_cyclic_uses_graph_namespace(triangle):
    key = query_cache_key(triangle)
    assert key.startswith("g:")
    rotated = LabeledGraph(["N", "C", "C"], [(0, 1, 1), (1, 2, 1), (2, 0, 2)])
    assert query_cache_key(rotated) == key


def test_cache_key_tree_vs_cycle_never_collide():
    tree = LabeledGraph(["a", "a"], [(0, 1, 1)])
    assert query_cache_key(tree).startswith("t:")


def _k33():
    return LabeledGraph(["a"] * 6, [(u, v, 1) for u in range(3) for v in range(3, 6)])


def _prism():
    """Two triangles joined by a perfect matching: 3-regular like K3,3."""
    edges = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)]
    return LabeledGraph(["a"] * 6, edges + [(i, i + 3, 1) for i in range(3)])


def _shuffled(graph, seed):
    perm = list(range(graph.num_vertices))
    random.Random(seed).shuffle(perm)
    return graph.relabeled(perm)


def test_equal_keys_do_not_imply_isomorphism():
    assert query_cache_key(_k33()) == query_cache_key(_prism())
    assert query_cache_key(_k33()).startswith("g:")
    assert not are_isomorphic(_k33(), _prism())


# ----------------------------------------------------------------------
# exact confirmation of key matches
# ----------------------------------------------------------------------
def test_key_collision_is_confirmed_as_a_miss():
    hexagon = LabeledGraph(["a"] * 6, [(i, (i + 1) % 6, 1) for i in range(6)])
    db = GraphDatabase([_k33(), _prism(), hexagon, _k33()])
    engine = QueryEngine(build_index(db), cache_size=8)
    scan = SequentialScan(db)
    bipartite = engine.query(_k33())
    prism = engine.query(_prism())
    assert bipartite.matches == scan.support_set(_k33()) == frozenset({0, 3})
    assert prism.matches == scan.support_set(_prism()) == frozenset({1})
    stats = engine.stats
    assert (stats.cache_hits, stats.cache_misses) == (0, 2)
    assert engine.cached_results == 2  # two classes under one key
    # Relabeled repeats of each confirm against their own entry.
    assert engine.query(_shuffled(_prism(), 1)) is prism
    assert engine.query(_shuffled(_k33(), 2)) is bipartite
    assert engine.stats.cache_hits == 2


def test_batch_confirms_relabeled_and_colliding_members():
    # A workload of relabeled and key-colliding queries served one by one:
    # a relabeled repeat hits while its bucket holds one entry, the
    # colliding prism misses, and later relabelings confirm per class.
    db = GraphDatabase([_k33(), _prism()])
    engine = QueryEngine(build_index(db), cache_size=8)
    members = [_k33(), _shuffled(_k33(), 3), _prism(), _shuffled(_prism(), 4)]
    results = [engine.query(q) for q in members]
    assert [r.matches for r in results] == [
        frozenset({0}), frozenset({0}), frozenset({1}), frozenset({1})
    ]
    assert results[1] is results[0] and results[3] is results[2]
    stats = engine.stats
    assert (stats.cache_hits, stats.cache_misses) == (2, 2)
    assert engine.cached_results == 2
    again = [engine.query(_shuffled(_prism(), 5)), engine.query(_shuffled(_k33(), 6))]
    assert again[0] is results[2] and again[1] is results[0]
    assert engine.stats.cache_hits == 4


def test_relabeled_repeats_hit_without_planning(engine, queries, monkeypatch):
    tree = next(q for q in queries if q.is_tree())
    cyclic = LabeledGraph(
        ["C", "C", "C", "O"], [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 2)]
    )
    first = [engine.query(tree), engine.query(cyclic)]

    def no_plan(*args, **kwargs):
        raise AssertionError("a confirmed hit must not plan")

    monkeypatch.setattr(TreePiIndex, "plan", no_plan)
    for seed in range(3):
        assert engine.query(_shuffled(tree, seed)) is first[0]
        assert engine.query(_shuffled(cyclic, seed)) is first[1]
    stats = engine.stats
    assert (stats.cache_hits, stats.cache_misses) == (6, 2)
    assert engine.cached_results == 2


def test_cached_entry_survives_caller_mutation(engine, db):
    query = LabeledGraph(["C", "C", "C"], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    first = engine.query(query)
    query.add_vertex("C")
    query.add_edge(2, 3, 1)  # the engine keeps its own copy
    assert engine.query(query).matches == SequentialScan(db).support_set(query)
    triangle = LabeledGraph(["C", "C", "C"], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert engine.query(triangle) is first


# ----------------------------------------------------------------------
# construction validation
# ----------------------------------------------------------------------
def test_rejects_negative_cache_size(engine):
    with pytest.raises(IndexError_):
        QueryEngine(engine.index, cache_size=-1)


def test_verify_workers_is_retired(engine, queries):
    for width in (0, 2):
        with pytest.raises(IndexError_, match="verification pool was removed"):
            QueryEngine(engine.index, verify_workers=width)
    serial = QueryEngine(engine.index, cache_size=0, verify_workers=1)
    assert serial.query(queries[0]).matches == engine.query(queries[0]).matches


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------
def test_cache_hit_returns_same_result(engine, queries):
    q = queries[0]
    first = engine.query(q)
    second = engine.query(q)
    assert second is first
    stats = engine.stats
    assert stats.queries == 2
    assert stats.cache_hits == 1
    assert stats.cache_misses == 1


def test_isomorphic_queries_share_one_entry(engine, db):
    q = next(iter(extract_query_workload(db, 3, 1, seed=8)))
    permuted_order = list(range(q.num_vertices))[::-1]
    relabeled = LabeledGraph(
        [q.vertex_label(permuted_order.index(i)) for i in range(q.num_vertices)],
        [
            (permuted_order[u], permuted_order[v], lbl)
            for u, v, lbl in q.edges()
        ],
    )
    engine.query(q)
    engine.query(relabeled)
    assert engine.stats.cache_hits == 1
    assert engine.cached_results == 1


def test_lru_eviction(db, queries):
    engine = QueryEngine(build_index(db), cache_size=2)
    a, b, c = queries[0], queries[1], queries[2]
    engine.query(a)
    engine.query(b)
    engine.query(c)           # evicts a
    assert engine.cached_results == 2
    engine.query(a)
    assert engine.stats.cache_hits == 0
    assert engine.stats.cache_misses == 4


def test_zero_cache_size_disables_caching(db, queries):
    engine = QueryEngine(build_index(db), cache_size=0)
    engine.query(queries[0])
    engine.query(queries[0])
    assert engine.cached_results == 0
    assert engine.stats.cache_hits == 0
    assert engine.stats.cache_misses == 2


def test_zero_cache_size_skips_the_cache_key(queries, monkeypatch):
    from repro.core import engine as engine_module

    db = generate_aids_like(20, avg_atoms=12, seed=11)  # private: mutated below
    keyed = []
    real_key = engine_module.query_cache_key
    monkeypatch.setattr(
        engine_module, "query_cache_key", lambda q: keyed.append(q) or real_key(q)
    )
    engine = QueryEngine(build_index(db), cache_size=0)
    triangle = LabeledGraph(["C", "C", "C"], [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    for q in [queries[0], queries[0], triangle]:
        assert engine.query(q).matches == engine.index.query(q).matches
    engine.insert(db[0].copy())
    engine.query(queries[1])
    assert keyed == []
    stats = engine.stats
    assert (stats.queries, stats.cache_hits, stats.cache_misses) == (4, 0, 4)
    assert stats.invalidations == 1
    assert engine.cached_results == 0


def test_results_match_raw_index(engine, queries):
    for q in queries:
        assert engine.query(q).matches == engine.index.query(q).matches


# ----------------------------------------------------------------------
# maintenance invalidation
# ----------------------------------------------------------------------
def test_insert_invalidates_and_extends_answers(engine, db, queries):
    q = queries[0]
    before = engine.query(q)
    gid = engine.insert(q)          # the query itself is now a member graph
    assert engine.cached_results == 0
    after = engine.query(q)
    assert gid in after.matches
    assert after.matches - before.matches == frozenset({gid})
    stats = engine.stats
    assert stats.inserts == 1
    assert stats.invalidations == 1


def test_delete_invalidates_and_shrinks_answers(engine, queries):
    q = queries[0]
    before = engine.query(q)
    victim = min(before.matches)
    engine.delete(victim)
    assert engine.cached_results == 0
    after = engine.query(q)
    assert victim not in after.matches
    assert engine.stats.deletes == 1


def test_rebuild_invalidates_and_keeps_counters(engine, queries):
    engine.query(queries[0])
    old_index = engine.index
    engine.rebuild()
    assert engine.index is not old_index
    assert engine.cached_results == 0
    stats = engine.stats
    assert stats.rebuilds == 1
    # The counters object survives the swap and stays attached.
    assert engine.index.stats.engine is not None
    assert engine.index.stats.engine.rebuilds == 1


def test_engine_counters_surface_through_index_stats(engine, queries):
    engine.query(queries[0])
    assert engine.index.stats.engine is not None
    assert engine.index.stats.engine.queries == 1


def test_counter_arithmetic_is_consistent(engine, queries):
    for q in queries:
        engine.query(q)
    for q in queries:
        engine.query(q)
    stats = engine.stats
    assert stats.queries == 2 * len(queries)
    assert stats.cache_hits + stats.cache_misses == stats.queries
