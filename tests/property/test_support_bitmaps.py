"""Support bitmaps stay equal to their id columns through maintenance.

Every feature support and exception list of a TreePi index has a bitmap
over the index's dense graph slots (:class:`~repro.storage.SlotTable`),
kept current by insert and delete one bit at a time and left as it is by
flush and compaction.  These properties warm every bitmap, run random
insert/delete sequences whose inserts reuse freed slots, and compare each
cached bitmap, decoded through the slot table, with its store's column
after every operation — on a heap index and on a v3 segment index with a
flush and a compaction in between.  Under ``REPRO_CONTRACTS=1`` flush and
compaction commit run the same comparison themselves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.contracts import ContractViolation, contract_scope
from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.graphs import GraphDatabase
from repro.mining import SupportFunction
from repro.persistence import load_index, save_index

CONFIG = TreePiConfig(SupportFunction(2, 2.0, 3), gamma=1.1, seed=7)

#: Donor molecules for the database and for inserts.
_POOL = [g.copy() for g in generate_aids_like(16, avg_atoms=9, seed=41)]

#: One maintenance step: ("insert", donor index) or ("delete", pick).
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, len(_POOL) - 1)),
        st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
    ),
    min_size=1,
    max_size=14,
)


def _index(size: int) -> TreePiIndex:
    return TreePiIndex.build(
        GraphDatabase([g.copy() for g in _POOL[:size]]), CONFIG
    )


def _stores(index: TreePiIndex):
    return [f.store for f in index.features] + [t.store for t in index.shrunk]


def _warm(index: TreePiIndex):
    slots = index.slot_table()
    for store in _stores(index):
        slots.bitmap(store)
    return slots


def _assert_bitmaps_exact(index: TreePiIndex, slots, warmed: int, step: str):
    cached = slots.cached()
    assert len(cached) >= warmed, step  # maintained, never dropped
    for store, bits in cached:
        assert slots.decode(bits) == list(store.graph_ids()), f"{step}: {store!r}"
    live = len(index.database)
    assert len(slots) >= live


def _apply(index: TreePiIndex, op) -> None:
    kind, arg = op
    if kind == "insert":
        index.insert(_POOL[arg].copy())
    elif len(index.database) > 1:
        ids = index.database.graph_ids()
        index.delete(ids[arg % len(ids)])


@given(size=st.integers(3, 8), ops=ops_strategy)
@settings(max_examples=20, deadline=None)
def test_bitmaps_match_columns_under_heap_maintenance(size, ops):
    index = _index(size)
    slots = _warm(index)
    warmed = len(slots.cached())
    peak = len(index.database)
    for step, op in enumerate(ops):
        _apply(index, op)
        peak = max(peak, len(index.database))
        _assert_bitmaps_exact(index, slots, warmed, f"op {step} {op}")
        # Inserts reuse freed slots: the table never outgrows the peak.
        assert len(slots) == peak


@given(size=st.integers(3, 8), ops=ops_strategy, cut=st.integers(0, 14))
@settings(max_examples=10, deadline=None)
def test_bitmaps_survive_flush_and_compaction(tmp_path_factory, size, ops, cut):
    root = tmp_path_factory.mktemp("bitmaps") / "idx"
    save_index(_index(size), root, version=3)
    index = load_index(root)
    try:
        slots = _warm(index)
        warmed = len(slots.cached())
        for step, op in enumerate(ops):
            _apply(index, op)
            if step == cut % len(ops):
                index.flush_segments()
                _assert_bitmaps_exact(index, slots, warmed, f"flush at {step}")
        index.flush_segments()
        _assert_bitmaps_exact(index, slots, warmed, "final flush")
        plan = index.prepare_compaction()
        if plan is not None:
            index.commit_compaction(plan)
        _assert_bitmaps_exact(index, slots, warmed, "compaction")
        assert index.slot_table() is slots
    finally:
        index.segment_store.close()


def _segment_index(tmp_path):
    root = tmp_path / "idx"
    save_index(_index(6), root, version=3)
    return load_index(root)


@pytest.mark.parametrize("step", ["flush", "compaction"])
def test_contract_catches_a_stale_bitmap(tmp_path, step):
    index = _segment_index(tmp_path)
    try:
        slots = _warm(index)
        index.insert(_POOL[9].copy())
        index.delete(index.database.graph_ids()[0])
        with contract_scope(True):
            index.flush_segments()  # exact bitmaps pass the check
            store, bits = slots.cached()[0]
            slots._bits[store] = bits ^ 1  # a stale bit
            with pytest.raises(ContractViolation, match="bitmap"):
                if step == "flush":
                    index.flush_segments()
                else:
                    plan = index.prepare_compaction()
                    assert plan is not None
                    index.commit_compaction(plan)
    finally:
        index.segment_store.close()
