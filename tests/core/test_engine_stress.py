"""Concurrency stress test for :class:`repro.core.engine.QueryEngine`.

Eight threads hammer one engine — readers replay a query pool while
mutators interleave inserts and deletes — and the run must end with

* zero exceptions in any thread,
* no stale cache hits: a mutator that inserts (deletes) a graph and then
  queries it must observe the mutation immediately, and at quiescence
  every cached answer must equal a fresh uncached pipeline run,
* consistent counters: hits + misses + dedup == queries, and the
  maintenance counters equal the operations actually performed,
* exact confirmed hits: relabeled isomorphic repeats racing maintenance
  get exactly the scan answer of the generation they were served from.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.analysis import (
    ContractViolation,
    contract_scope,
    lock_order_edges,
    reset_lock_order,
)
from repro.baselines.scan import SequentialScan
from repro.core import QueryEngine, TreePiConfig, TreePiIndex
from repro.datasets import extract_query_workload, generate_aids_like
from repro.graphs import is_subgraph_isomorphic
from repro.mining import SupportFunction

READERS = 6
MUTATORS = 2
READER_ROUNDS = 12
MUTATOR_ROUNDS = 4


def build_engine():
    db = generate_aids_like(14, avg_atoms=11, seed=21)
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)
    )
    pool = list(extract_query_workload(db, 3, 4, seed=6))
    pool += list(extract_query_workload(db, 5, 4, seed=7))
    return QueryEngine(index, cache_size=16), pool


@pytest.mark.slow
def test_interleaved_query_insert_delete():
    engine, pool = build_engine()
    errors = []
    start = threading.Barrier(READERS + MUTATORS)
    inserts_done = []
    deletes_done = []
    done_lock = threading.Lock()

    def reader(offset):
        try:
            start.wait()
            for i in range(READER_ROUNDS):
                query = pool[(offset + i) % len(pool)]
                result = engine.query(query)
                assert result.matches == frozenset(result.matches)
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    def mutator(offset):
        """Insert a pool query as a graph, check visibility, then delete it."""
        try:
            start.wait()
            for i in range(MUTATOR_ROUNDS):
                graph = pool[(offset + 3 * i) % len(pool)]
                gid = engine.insert(graph)
                with done_lock:
                    inserts_done.append(gid)
                # The insert invalidated the cache, so this query runs a
                # fresh pipeline and must see the graph we just added.
                assert gid in engine.query(graph).matches, "stale hit after insert"
                engine.delete(gid)
                with done_lock:
                    deletes_done.append(gid)
                assert gid not in engine.query(graph).matches, "stale hit after delete"
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(READERS)
    ] + [
        threading.Thread(target=mutator, args=(2 * i,)) for i in range(MUTATORS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, f"worker threads raised: {errors!r}"

    # Quiescent consistency: every answer (cached or not) matches both a
    # raw uncached pipeline and the brute-force scan over the final DB.
    scan = SequentialScan(engine.index.database)
    for query in pool:
        served = engine.query(query)
        assert served.matches == engine.index.query(query).matches
        assert served.matches == scan.support_set(query)

    stats = engine.stats
    assert stats.inserts == len(inserts_done) == MUTATORS * MUTATOR_ROUNDS
    assert stats.deletes == len(deletes_done) == MUTATORS * MUTATOR_ROUNDS
    assert stats.invalidations == stats.inserts + stats.deletes + stats.rebuilds
    assert stats.cache_hits + stats.cache_misses == stats.queries
    assert stats.queries >= READERS * READER_ROUNDS + 2 * MUTATORS * MUTATOR_ROUNDS


def test_short_interleaving_smoke():
    """A fast, always-on slice of the stress scenario (2 threads)."""
    engine, pool = build_engine()
    errors = []

    def reader():
        try:
            for i in range(6):
                engine.query(pool[i % len(pool)])
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    def mutator():
        try:
            for i in range(2):
                graph = pool[i]
                gid = engine.insert(graph)
                assert gid in engine.query(graph).matches
                engine.delete(gid)
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=reader), threading.Thread(target=mutator)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, f"worker threads raised: {errors!r}"
    stats = engine.stats
    assert stats.cache_hits + stats.cache_misses == stats.queries


def test_racing_first_queries_share_exact_support_bitmaps():
    """Readers holding only the read lock race to build the slot table
    and the support bitmaps of a fresh index; every answer equals the
    scan, and the table left published stays exact through maintenance."""
    db = generate_aids_like(14, avg_atoms=11, seed=21)
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)
    )
    engine = QueryEngine(index, cache_size=0)
    pool = list(extract_query_workload(db, 6, 4, seed=9))
    expected = [SequentialScan(db).support_set(query) for query in pool]
    errors = []
    start = threading.Barrier(READERS)

    def reader():
        try:
            start.wait(timeout=30.0)
            for query, want in zip(pool, expected):
                assert engine.query(query).matches == want
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave inside the lazy builds
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, f"worker threads raised: {errors!r}"
    slots = index.slot_table()
    slots.check()
    engine.delete(db.graph_ids()[0])
    engine.insert(pool[0].copy())
    assert index.slot_table() is slots
    slots.check()
    for query in pool:
        assert engine.query(query).matches == SequentialScan(db).support_set(query)


def test_relabeled_repeats_match_the_scan_of_their_generation():
    """Readers replay random relabelings of tree and cyclic queries (one
    relabeling, or two back to back) while one mutator inserts and
    deletes.  The generation is the engine's invalidation count; an
    answer whose call saw the same count before and after was served
    from that generation, and must equal its scan answer."""
    engine, pool = build_engine()
    db = engine.index.database
    cyclic = [
        q for q in extract_query_workload(db, 8, 12, seed=9) if not q.is_tree()
    ]
    pool = pool[:4] + cyclic[:4]
    assert any(q.is_tree() for q in pool) and any(not q.is_tree() for q in pool)
    states = {0: {gid: db[gid] for gid in db.graph_ids()}}
    records = []
    errors = []
    start = threading.Barrier(READERS // 2 + 1)

    def mutator():
        try:
            start.wait()
            live = dict(states[0])
            for i in range(2 * MUTATOR_ROUNDS):
                graph = pool[i % len(pool)]
                gid = engine.insert(graph)
                live[gid] = graph
                states[engine.stats.invalidations] = dict(live)
                time.sleep(0.005)
                engine.delete(gid)
                del live[gid]
                states[engine.stats.invalidations] = dict(live)
                time.sleep(0.005)
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    def reader(seed):
        rng = random.Random(seed)

        def relabel(query):
            perm = list(range(query.num_vertices))
            rng.shuffle(perm)
            return query.relabeled(perm)

        try:
            start.wait()
            for i in range(3 * len(pool)):
                query = pool[(seed + i) % len(pool)]
                before = engine.stats.invalidations
                answers = [engine.query(relabel(query)).matches]
                if not i % 3:
                    answers.append(engine.query(relabel(query)).matches)
                if engine.stats.invalidations == before:
                    records.extend((query, before, a) for a in answers)
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=mutator)] + [
        threading.Thread(target=reader, args=(i,)) for i in range(READERS // 2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside confirmation
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)

    assert not errors, f"worker threads raised: {errors!r}"
    assert records, "no answer was served from a single generation"
    expected = {}
    for query, generation, answer in records:
        key = (id(query), generation)
        if key not in expected:
            expected[key] = frozenset(
                gid
                for gid, graph in states[generation].items()
                if is_subgraph_isomorphic(query, graph)
            )
        assert answer == expected[key], f"wrong answer at generation {generation}"
    stats = engine.stats
    assert stats.cache_hits > 0
    assert stats.cache_hits + stats.cache_misses == stats.queries


def test_contracts_enabled_interleaving_records_lock_order():
    """The smoke scenario under REPRO_CONTRACTS: the lock-order tracker
    vets every engine acquisition and ends up with the documented
    discipline (``_rw`` before ``_mutex``) and no violations."""
    engine, pool = build_engine()  # built outside the scope: locks, no checks
    errors = []

    def reader():
        try:
            for i in range(6):
                engine.query(pool[i % len(pool)])
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    def mutator():
        try:
            for i in range(2):
                graph = pool[i]
                gid = engine.insert(graph)
                assert gid in engine.query(graph).matches
                engine.delete(gid)
            engine.rebuild()
        except Exception as exc:  # noqa: REPRO121 - collected and re-raised below
            errors.append(exc)

    reset_lock_order()
    try:
        with contract_scope():
            threads = [
                threading.Thread(target=reader),
                threading.Thread(target=mutator),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            edges = lock_order_edges()
    finally:
        reset_lock_order()

    assert not errors, f"worker threads raised under contracts: {errors!r}"
    assert "QueryEngine._mutex" in edges.get("QueryEngine._rw", ()), (
        f"expected the engine's _rw -> _mutex acquisition order, got {edges!r}"
    )
    # The discipline is acyclic: _mutex never wraps _rw.
    assert "QueryEngine._rw" not in edges.get("QueryEngine._mutex", ())


def test_direct_index_mutation_raises_under_contracts():
    """``@guarded_by("_serving_lock")`` bites: once an engine serves the
    index, maintenance must go through the engine (which holds the write
    lock), not through ``engine.index`` directly."""
    engine, pool = build_engine()
    baseline = len(engine.index.database)
    with contract_scope():
        with pytest.raises(ContractViolation, match="_serving_lock"):
            engine.index.insert(pool[0])
        assert len(engine.index.database) == baseline  # nothing mutated
        gid = engine.insert(pool[0])  # engine-routed: write lock held, passes
        assert gid in engine.query(pool[0]).matches
        engine.delete(gid)


def test_standalone_index_mutation_unchecked_under_contracts():
    """An index no engine ever served keeps its lock-free maintenance API."""
    db = generate_aids_like(6, avg_atoms=9, seed=31)
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)
    )
    query = next(iter(extract_query_workload(db, 3, 1, seed=8)))
    with contract_scope():
        gid = index.insert(query)
        assert gid in index.query(query).matches
        index.delete(gid)
