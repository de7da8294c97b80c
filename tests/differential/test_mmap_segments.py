"""Differential suite: mmap segment engine vs in-memory engine.

For every seeded corpus of the differential sweep, the index is built
once in memory, saved as a v3 segment directory, reopened (cold,
columns unmapped), and both engines answer the full query workload —
cold and from their caches, unbudgeted and budgeted — with bitwise
answer equality required.  Then a scripted insert/delete/flush/compact
interleaving runs against *both* engines and equality is re-checked
after every mutation burst, with :class:`EngineStats` asserting that
the segment-backed engine never fell back to a full rebuild.

The cold-open contract is also pinned here: opening a v3 directory
touches zero posting/center columns.
"""

from __future__ import annotations

import pytest

from repro.core import QueryBudget, QueryEngine, TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.mining import SupportFunction
from repro.persistence import load_index, save_index

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    corpus_params,
    make_corpus,
)

CONFIG = TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)


def _open_pair(db, tmp_path, cache_size=8):
    """Build in memory, save v3, reopen cold; return both engines."""
    index = TreePiIndex.build(db, CONFIG)
    root = tmp_path / "segments"
    save_index(index, root, version=3)
    loaded = load_index(root)
    assert loaded.segment_store.columns_touched() == 0  # cold-open gate
    assert loaded.segment_backed and not index.segment_backed
    mem = QueryEngine(index, cache_size=cache_size)
    mapped = QueryEngine(loaded, cache_size=cache_size)
    return mem, mapped, loaded


def _assert_parity(mem, mapped, queries):
    """Cold + cached, unbudgeted + budgeted: answers must be equal."""
    for rerun in ("cold", "cached"):
        for i, query in enumerate(queries):
            want = mem.query(query).matches
            assert mapped.query(query).matches == want, f"{rerun} diverged on {i}"
    # Budgeted traffic: a generous work cap keeps the answers complete,
    # so degradation soundness never masks an inequality.
    budget = QueryBudget(verify_steps=10_000_000)
    for i, query in enumerate(queries):
        a = mem.query(query, budget=QueryBudget(verify_steps=10_000_000))
        b = mapped.query(query, budget=budget)
        assert a.complete and b.complete
        assert a.matches == b.matches, f"budgeted single diverged on {i}"


@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_mmap_engine_answers_match(kind, seed, tmp_path):
    db, queries = make_corpus(kind, seed)
    mem, mapped, loaded = _open_pair(db, tmp_path)
    try:
        _assert_parity(mem, mapped, queries)
        assert mapped.stats.rebuilds == 0
    finally:
        loaded.segment_store.close()


@pytest.mark.parametrize(
    "kind,seed",
    [
        pytest.param("chemical", CHEMICAL_SEEDS[0], id="chemical"),
        pytest.param("synthetic", SYNTHETIC_SEEDS[0], id="synthetic"),
    ],
)
def test_mmap_engine_parity_through_maintenance(kind, seed, tmp_path):
    """Insert/delete/flush/compact interleaving, equality after each burst."""
    db, queries = make_corpus(kind, seed)
    mem, mapped, loaded = _open_pair(db, tmp_path)
    store = loaded.segment_store
    try:
        extra = generate_aids_like(9, avg_atoms=10, seed=seed + 1000)
        extra_graphs = [extra[g] for g in extra.graph_ids()]

        # Burst 1: inserts only.
        for graph in extra_graphs[:3]:
            a = mem.insert(graph)
            b = mapped.insert(graph)
            assert a == b
        _assert_parity(mem, mapped, queries)

        # Burst 2: deletes (one original, one fresh) + forced flush.
        victims = [sorted(db.graph_ids())[0], mem.graph_ids()[-1]]
        for gid in victims:
            mem.delete(gid)
            mapped.delete(gid)
        mapped.flush()
        _assert_parity(mem, mapped, queries)

        # Burst 3: reinsert after delete, more inserts, then compact.
        for graph in extra_graphs[3:6]:
            assert mem.insert(graph) == mapped.insert(graph)
        mapped.flush()
        assert store.segment_count > 1
        assert mapped.compact()
        assert store.segment_count == 1
        assert store.tombstones == {}
        _assert_parity(mem, mapped, queries)

        # Burst 4: maintenance after compaction still agrees.
        for graph in extra_graphs[6:]:
            assert mem.insert(graph) == mapped.insert(graph)
        gid = mem.graph_ids()[2]
        mem.delete(gid)
        mapped.delete(gid)
        _assert_parity(mem, mapped, queries)

        # The segment engine never fell back to a full rebuild.
        stats = mapped.stats
        assert stats.rebuilds == 0
        assert stats.inserts == 9 and stats.deletes == 3
        assert not loaded.needs_rebuild()
        # Persist burst 4 (memtable + tombstone) before the reopen check.
        mapped.flush()
    finally:
        store.close()

    # And the final state survives a cold reopen.
    reopened = load_index(tmp_path / "segments")
    try:
        fresh = QueryEngine(reopened)
        for query in queries:
            assert fresh.query(query).matches == mem.query(query).matches
    finally:
        reopened.segment_store.close()
