"""SlotTable unit tests: slot assignment, reuse and bitmap encode/decode.

The table numbers slots and nothing else; the bitmaps over it belong to
the index's trees (``tests/core/test_feature.py``)."""

from repro.storage import SlotTable, popcount


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


def test_release_returns_the_freed_bit():
    slots = SlotTable([10, 20, 30])
    assert slots.release(30) == 1 << 2
    assert slots.release(10) == 1 << 0
    # Encoding the live ids never sets a freed slot's bit.
    assert slots.encode([20]) == 0b010
    assert slots.decode(0b010) == [20]
    assert slots.claim(5) == 1 << 0
