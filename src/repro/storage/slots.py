"""Dense graph slots and the support bitmaps over them.

A :class:`SlotTable` maps every live graph id of one index to a dense
*slot* ``0..n-1`` and caches, per id store (a feature's support set or
an exception list), a Python-int bitmap with bit ``s`` set when the
graph in slot ``s`` is in the store.  Intersecting supports is then one
``&`` per store, and ``I(t) − E(t)`` is ``& ~``; the id columns stay the
authoritative form, which persistence and ``storage_bytes()`` read.

* **Slots.**  A fresh table gives the live ids, ascending, slots
  ``0..n-1``.  A delete frees its graph's slot and an insert takes the
  lowest free slot (a new one only when none is free), so a bitmap never
  grows past the peak live-graph count, however large the ids are.
* **Lazy bitmaps.**  A store's bitmap is built from its id column the
  first time a query asks for it.  Insert and delete keep every cached
  bitmap current by setting or clearing one bit; a freed slot's bit is
  cleared in every bitmap, so a reused slot starts clean.  Flush and
  compaction swap a store's column for an equal one, which leaves its
  bitmap as it is.
* **Concurrency.**  Readers only read the slot maps, and two readers that
  build the same bitmap store equal values, so lazy building is safe
  under the engine's read lock; ``claim``/``release`` run under its write
  lock.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from itertools import compress
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.analysis.contracts import ContractViolation
from repro.analysis.guards import hot_path

if TYPE_CHECKING:
    from repro.core.feature import IdStoreLike

#: ``bin()`` digits to per-slot truth values (see :meth:`SlotTable.decode`).
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")

#: A free slot's entry in the slot -> graph id list; no cached bitmap
#: has its bit set.
_FREE = -1


def popcount(bits: int) -> int:
    """Set bits of a non-negative bitmap (``int.bit_count`` needs 3.10)."""
    return bin(bits).count("1")


class SlotTable:
    """Dense slots for one index's live graph ids, plus bitmaps over them."""

    __slots__ = ("_slot_of", "_gid_of", "_free", "_bits")

    def __init__(self, gids: Iterable[int]) -> None:
        self._gid_of: List[int] = sorted(gids)
        self._slot_of: Dict[int, int] = {
            gid: slot for slot, gid in enumerate(self._gid_of)
        }
        self._free: List[int] = []  # a heap: insert takes the lowest
        self._bits: Dict["IdStoreLike", int] = {}

    def __len__(self) -> int:
        """Slots in use or free: the peak live-graph count since building."""
        return len(self._gid_of)

    # ------------------------------------------------------------------
    # bitmaps
    # ------------------------------------------------------------------
    @hot_path
    def bitmap(self, store: "IdStoreLike") -> int:
        """``store``'s bitmap, built from its id column on first use."""
        bits = self._bits.get(store)
        if bits is None:
            # Racing readers build equal values; either write is fine.
            bits = self._bits[store] = self.encode(store.graph_ids())
        return bits

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

    def cached(self) -> List[Tuple["IdStoreLike", int]]:
        """Every bitmap built so far, with its store."""
        return list(self._bits.items())

    def check(self) -> None:
        """Runtime contract: every cached bitmap equals its id column."""
        for store, bits in self.cached():
            column = list(store.graph_ids())
            if self.decode(bits) != column:
                raise ContractViolation(
                    f"support bitmap of {store!r} decodes to "
                    f"{self.decode(bits)[:8]}..., its column holds "
                    f"{column[:8]}..."
                )

    def nbytes(self) -> int:
        """Resident bytes of the cached bitmaps (int objects included)."""
        return sum(sys.getsizeof(bits) for bits in self._bits.values())

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

    def mark(self, store: "IdStoreLike", bit: int) -> None:
        """Set ``bit`` in ``store``'s bitmap, if one is cached."""
        bits = self._bits.get(store)
        if bits is not None:
            self._bits[store] = bits | bit

    def release(self, gid: int) -> None:
        """Free deleted ``gid``'s slot and clear its bit everywhere."""
        slot = self._slot_of.pop(gid)
        self._gid_of[slot] = _FREE
        heappush(self._free, slot)
        bit = 1 << slot
        cache = self._bits
        for store, bits in cache.items():
            if bits & bit:
                cache[store] = bits ^ bit
