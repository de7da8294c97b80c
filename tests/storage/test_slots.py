"""SlotTable unit tests: slot assignment and reuse, bitmap encode/decode,
maintenance of cached bitmaps, and the column-equality contract."""

import pytest

from repro.analysis.contracts import ContractViolation
from repro.storage import IdStore, PostingList, SlotTable, popcount


def test_fresh_table_gives_ascending_ids_dense_slots():
    slots = SlotTable([40, 7, 1 << 40])
    assert len(slots) == 3
    assert slots.encode([7]) == 0b001
    assert slots.encode([40, 1 << 40]) == 0b110
    assert slots.decode(0b101) == [7, 1 << 40]


def test_empty_sets_and_empty_table():
    assert SlotTable([]).encode([]) == 0
    assert SlotTable([3]).decode(0) == []
    assert popcount(0) == 0


def test_popcount():
    assert popcount(0b1011) == 3
    assert popcount((1 << 200) | 1) == 2


def test_insert_takes_the_lowest_free_slot():
    slots = SlotTable([10, 20, 30])
    slots.release(20)
    slots.release(10)
    assert slots.claim(99) == 1 << 0  # slot 0, freed after slot 1
    assert slots.claim(98) == 1 << 1
    assert slots.claim(97) == 1 << 3  # no slot free: a new one
    assert len(slots) == 4
    # Reused slots no longer follow id order, but decoding still does.
    assert slots.decode(0b1111) == [30, 97, 98, 99]


def test_bitmaps_are_lazy_and_cached():
    slots = SlotTable([1, 2, 3])
    store = IdStore(PostingList([1, 3]))
    assert slots.cached() == []
    assert slots.bitmap(store) == 0b101
    assert slots.cached() == [(store, 0b101)]
    # A cached bitmap is not rebuilt from the column.
    store.add_graph(2)
    assert slots.bitmap(store) == 0b101


def test_claim_mark_and_release_keep_cached_bitmaps_exact():
    slots = SlotTable([1, 2, 3])
    a, b = IdStore(PostingList([1, 2])), IdStore(PostingList([2, 3]))
    slots.bitmap(a), slots.bitmap(b)
    untouched = IdStore(PostingList([3]))
    slots.mark(untouched, 1)  # not cached: nothing to keep current
    assert untouched not in dict(slots.cached())

    for store in (a, b):
        store.remove_graph(2)
    slots.release(2)
    assert slots.bitmap(a) == 0b001 and slots.bitmap(b) == 0b100
    bit = slots.claim(9)  # reuses slot 1; no bitmap carries it yet
    assert bit == 0b010
    assert slots.bitmap(a) & bit == 0 and slots.bitmap(b) & bit == 0
    a.add_graph(9)
    slots.mark(a, bit)
    assert slots.decode(slots.bitmap(a)) == [1, 9]
    slots.check()


def test_check_reports_a_stale_bitmap():
    slots = SlotTable([1, 2])
    store = IdStore(PostingList([1]))
    slots.bitmap(store)
    store.add_graph(2)  # the column changed, the bitmap did not
    with pytest.raises(ContractViolation, match="bitmap"):
        slots.check()


def test_nbytes_counts_cached_bitmaps_only():
    slots = SlotTable(range(100))
    assert slots.nbytes() == 0
    slots.bitmap(IdStore(PostingList(range(0, 100, 3))))
    assert 0 < slots.nbytes() < 100
