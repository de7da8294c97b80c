"""Columnar per-feature center-location tables (Section 4.2.1).

An :class:`OccurrenceStore` replaces a dict-of-frozensets
center-location table with three parallel columns:

* ``gids``    — sorted graph ids (the support set; shared zero-copy with
  :class:`~repro.storage.posting.PostingList` snapshots),
* ``offsets`` — ``len(gids) + 1`` prefix offsets into the center column,
* ``centers`` — every center location flattened, per graph in sorted
  order, with the leading coordinate **delta-encoded** against the
  previous center of the same graph (sorted tuples make the deltas
  non-negative, so they pack into the same unsigned array).

``add_graph``/``remove_graph`` splice fresh columns rather than mutating
in place; any :meth:`graph_ids` posting list or decoded center set
handed out earlier therefore remains a consistent snapshot, which is
what lets :class:`~repro.core.engine.QueryEngine` maintenance run under
a writer lock while read-side plans keep using the views they already
hold.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.storage.posting import IdColumn, PostingList, _concat, id_array

Center = Tuple[int, ...]


#: Decoded-center memo size; cleared (not evicted piecewise) when full so
#: concurrent read-side lookups never race an eviction structure.
_DECODE_CACHE_LIMIT = 64


class OccurrenceStore:
    """Columnar map ``graph id -> sorted center locations`` of one feature."""

    __slots__ = ("_arity", "_gids", "_offsets", "_flat", "_decoded")

    _gids: IdColumn
    _offsets: IdColumn
    _flat: IdColumn

    def __init__(self, arity: int) -> None:
        if arity < 1:
            raise ValueError(f"center arity must be >= 1, got {arity}")
        self._arity = arity
        self._gids = id_array()
        self._offsets = id_array([0])
        self._flat = id_array()
        self._decoded: Dict[int, FrozenSet[Center]] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(
        cls, arity: int, locations: Mapping[int, Iterable[Center]]
    ) -> "OccurrenceStore":
        store = cls(arity)
        gids: List[int] = []
        offsets: List[int] = [0]
        flat: List[int] = []
        for gid in sorted(locations):
            centers = sorted(set(locations[gid]))
            if not centers:
                continue
            gids.append(gid)
            cls._encode_block(arity, centers, flat)
            offsets.append(len(flat))
        # id_array picks 'I' or 'Q' from the max value, so gids past
        # 2^32 widen the column instead of overflowing an append.
        store._gids = id_array(gids)
        store._offsets = id_array(offsets)
        store._flat = id_array(flat)
        return store

    @classmethod
    def from_columns(
        cls,
        arity: int,
        gids: Iterable[int],
        offsets: Iterable[int],
        centers: Iterable[int],
    ) -> "OccurrenceStore":
        """Adopt raw columns (the persistence v2 record), validated."""
        store = cls(arity)
        store._gids = id_array(gids)
        store._offsets = id_array(offsets)
        store._flat = id_array(centers)
        if len(store._offsets) != len(store._gids) + 1:
            raise ValueError(
                f"offset column length {len(store._offsets)} does not match "
                f"{len(store._gids)} graphs"
            )
        if len(store._offsets) and store._offsets[-1] != len(store._flat):
            raise ValueError("final offset does not cover the center column")
        for i in range(1, len(store._gids)):
            if store._gids[i - 1] >= store._gids[i]:
                raise ValueError("graph-id column must be strictly increasing")
        for i in range(1, len(store._offsets)):
            width = store._offsets[i] - store._offsets[i - 1]
            if width <= 0 or width % arity:
                raise ValueError(
                    f"center block {i - 1} has width {width}, "
                    f"not a positive multiple of arity {arity}"
                )
        return store

    @classmethod
    def from_buffer(
        cls,
        arity: int,
        gids: IdColumn,
        offsets: IdColumn,
        centers: IdColumn,
    ) -> "OccurrenceStore":
        """Adopt buffer-backed columns zero-copy (trusted segment data).

        Unlike :meth:`from_columns` this performs no validation: the
        columns come from a segment file this library wrote, and
        checking them would fault in every page of a lazily mapped
        file — the v3 cold-open contract is O(metadata), with pages
        touched only as reads demand them.  All read paths work
        identically over either backing; a mutation
        (:meth:`add_graph`/:meth:`remove_graph`) splices the touched
        region back into heap arrays.
        """
        store = cls(arity)
        store._gids = gids
        store._offsets = offsets
        store._flat = centers
        return store

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_block(
        arity: int, centers: List[Center], out: List[int]
    ) -> None:
        prev = 0
        for center in centers:
            if len(center) != arity:
                raise ValueError(
                    f"center {center!r} has arity {len(center)}, "
                    f"store expects {arity}"
                )
            out.append(center[0] - prev)
            prev = center[0]
            out.extend(center[1:])

    def _decode_block(self, start: int, end: int) -> FrozenSet[Center]:
        arity, flat = self._arity, self._flat
        prev = 0
        centers: List[Center] = []
        j = start
        while j < end:
            first = prev + flat[j]
            prev = first
            centers.append((first,) + tuple(flat[j + 1 : j + arity]))
            j += arity
        return frozenset(centers)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return self._arity

    def __len__(self) -> int:
        """Number of graphs with at least one occurrence (``|D_t|``)."""
        return len(self._gids)

    def __contains__(self, gid: object) -> bool:
        if not isinstance(gid, int) or gid < 0:
            return False
        i = bisect_left(self._gids, gid)
        return i < len(self._gids) and self._gids[i] == gid

    def graph_ids(self) -> PostingList:
        """The support set as a zero-copy posting-list snapshot."""
        return PostingList._wrap(self._gids)

    def centers_in(self, gid: int) -> FrozenSet[Center]:
        """Decoded center locations in one graph (empty if absent)."""
        cached = self._decoded.get(gid)
        if cached is not None:
            return cached
        i = bisect_left(self._gids, gid)
        if i == len(self._gids) or self._gids[i] != gid:
            return frozenset()
        centers = self._decode_block(self._offsets[i], self._offsets[i + 1])
        if len(self._decoded) >= _DECODE_CACHE_LIMIT:
            self._decoded = {}
        self._decoded[gid] = centers
        return centers

    def items(self) -> Iterator[Tuple[int, FrozenSet[Center]]]:
        """All ``(graph id, centers)`` pairs in ascending graph-id order."""
        for i, gid in enumerate(self._gids):
            yield gid, self._decode_block(self._offsets[i], self._offsets[i + 1])

    def to_mapping(self) -> Dict[int, FrozenSet[Center]]:
        """Materialize the classic dict-of-frozensets view (debug/compat)."""
        return dict(self.items())

    def total_centers(self) -> int:
        """Occurrence count across all graphs."""
        return len(self._flat) // self._arity

    def columns(self) -> Tuple[List[int], List[int], List[int]]:
        """Raw ``(gids, offsets, centers)`` columns for serialization."""
        return list(self._gids), list(self._offsets), list(self._flat)

    def nbytes(self) -> int:
        """Resident bytes of the three columns."""
        return sum(
            col.itemsize * len(col)
            for col in (self._gids, self._offsets, self._flat)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OccurrenceStore):
            return NotImplemented
        return (
            self._arity == other._arity
            and list(self._gids) == list(other._gids)
            and list(self._offsets) == list(other._offsets)
            and list(self._flat) == list(other._flat)
        )

    def __repr__(self) -> str:
        return (
            f"OccurrenceStore(arity={self._arity}, graphs={len(self._gids)}, "
            f"centers={self.total_centers()})"
        )

    # ------------------------------------------------------------------
    # incremental maintenance (Section 7.1 hooks)
    # ------------------------------------------------------------------
    def add_graph(self, gid: int, centers: Iterable[Center]) -> None:
        """Merge ``centers`` into ``gid``'s block (no-op when empty).

        Insert maintenance may rediscover occurrences already recorded;
        the new block is the union of old and new, so the call is
        idempotent like the frozenset-union it replaces.
        """
        if gid < 0:
            raise ValueError(f"graph ids are non-negative, got {gid}")
        fresh = set(centers)
        if not fresh:
            return
        i = bisect_left(self._gids, gid)
        existed = i < len(self._gids) and self._gids[i] == gid
        if existed:
            fresh |= self._decode_block(self._offsets[i], self._offsets[i + 1])
        block: List[int] = []
        self._encode_block(self._arity, sorted(fresh), block)
        self._splice(i, existed, gid, block)

    def remove_graph(self, gid: int) -> bool:
        """Drop ``gid``'s block entirely; ``True`` if it was present."""
        i = bisect_left(self._gids, gid)
        if i == len(self._gids) or self._gids[i] != gid:
            return False
        self._splice(i, True, gid, [])
        return True

    def _splice(
        self, i: int, existed: bool, gid: int, block: List[int]
    ) -> None:
        """Replace (or insert/delete) the block at position ``i``.

        Fresh column objects are assigned in one step each, preserving
        the snapshot property of previously handed-out views.
        """
        start = self._offsets[i]
        end = self._offsets[i + 1] if existed else start
        delta = len(block) - (end - start)
        new_flat = _concat([self._flat[:start], id_array(block), self._flat[end:]])
        offsets = list(self._offsets)
        new_gids: IdColumn
        if existed and block:          # replace block i in place
            new_gids = self._gids
            new_offsets = offsets[: i + 1] + [o + delta for o in offsets[i + 1 :]]
        elif existed:                  # drop graph i entirely
            new_gids = _concat([self._gids[:i], self._gids[i + 1 :]])
            new_offsets = offsets[: i + 1] + [o + delta for o in offsets[i + 2 :]]
        else:                          # insert a new graph at position i
            new_gids = _concat([self._gids[:i], id_array([gid]), self._gids[i:]])
            new_offsets = (
                offsets[: i + 1]
                + [start + len(block)]
                + [o + delta for o in offsets[i + 1 :]]
            )
        self._gids = new_gids
        self._offsets = id_array(new_offsets)
        self._flat = new_flat
        self._decoded = {}
