"""Dense graph slots: the bit positions of the support bitmaps.

A :class:`SlotTable` maps every live graph id of one index to a dense
*slot* ``0..n-1``.  A support bitmap is a Python int with bit ``s`` set
when the graph in slot ``s`` is in the support; intersecting supports is
then one ``&`` per support, and ``I(t) − E(t)`` is ``& ~``.  The table
holds no bitmap: each tree of the index owns its own
(:class:`~repro.core.feature.IndexedTree`), and the table numbers the
slots and encodes and decodes id sets over them.

* **Slots.**  A fresh table gives the live ids, ascending, slots
  ``0..n-1``.  A delete frees its graph's slot and an insert takes the
  lowest free slot (a new one only when none is free), so a bitmap never
  grows past the peak live-graph count, however large the ids are.
* **Reuse.**  :meth:`SlotTable.release` returns the freed slot's bit and
  touches no bitmap; the delete that frees it clears that bit in every
  tree's bitmap, so a reused slot starts clean.
* **Concurrency.**  Readers only read the slot maps; ``claim`` and
  ``release`` run under the serving engine's write lock.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from typing import Dict, Iterable, List

from repro.analysis.guards import hot_path

#: ``bin()`` digits to per-slot truth values (see :meth:`SlotTable.decode`).
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")

#: A free slot's entry in the slot -> graph id list; no bitmap has its
#: bit set.
_FREE = -1


def popcount(bits: int) -> int:
    """Set bits of a non-negative bitmap (``int.bit_count`` needs 3.10)."""
    return bin(bits).count("1")


class SlotTable:
    """Dense slots for one index's live graph ids."""

    __slots__ = ("_slot_of", "_gid_of", "_free")

    def __init__(self, gids: Iterable[int]) -> None:
        self._gid_of: List[int] = sorted(gids)
        self._slot_of: Dict[int, int] = {
            gid: slot for slot, gid in enumerate(self._gid_of)
        }
        self._free: List[int] = []  # a heap: insert takes the lowest

    def __len__(self) -> int:
        """Slots in use or free: the peak live-graph count since building."""
        return len(self._gid_of)

    def encode(self, gids: Iterable[int]) -> int:
        """The bitmap of live graph ids ``gids``."""
        slot_of = self._slot_of
        digits = bytearray(b"0") * len(self._gid_of)
        for gid in gids:
            digits[slot_of[gid]] = 49  # ord("1")
        digits.reverse()  # slot 0 is the lowest bit
        return int(digits, 2) if digits else 0

    @hot_path
    def decode(self, bits: int) -> List[int]:
        """The graph ids of ``bits``, ascending."""
        flags = bin(bits)[:1:-1].encode("ascii").translate(_DIGIT_FLAGS)
        return sorted(compress(self._gid_of, flags))

    # ------------------------------------------------------------------
    # maintenance (the serving engine's write lock is held)
    # ------------------------------------------------------------------
    def claim(self, gid: int) -> int:
        """Give newly inserted ``gid`` the lowest free slot; its bit."""
        if self._free:
            slot = heappop(self._free)
            self._gid_of[slot] = gid
        else:
            slot = len(self._gid_of)
            self._gid_of.append(gid)
        self._slot_of[gid] = slot
        return 1 << slot

    def release(self, gid: int) -> int:
        """Free deleted ``gid``'s slot; its bit, for the caller to clear."""
        slot = self._slot_of.pop(gid)
        self._gid_of[slot] = _FREE
        heappush(self._free, slot)
        return 1 << slot
