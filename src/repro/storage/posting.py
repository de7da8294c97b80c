"""Immutable sorted-id posting lists with adaptive intersection.

A :class:`PostingList` is a support set ``D_t`` stored as a sorted
``array`` of unsigned graph ids — 4 bytes per id instead of a hash-set
entry and cache-friendly iteration.  It is the authoritative form of
every TreePi support set and exception list (persisted, counted by
``storage_bytes()``); TreePi's filters intersect the bitmaps a
:class:`~repro.storage.SlotTable` derives from these columns instead.

The gIndex and GraphGrep baselines intersect posting lists directly.
Two-way intersection is *adaptive*: a heavily skewed pair gallops —
binary-searching each id of the short list in the long one with an
advancing lower bound (O(m log n), the classic small-vs-large win) —
while comparable-length inputs hash the smaller side and re-sort the
(small) result; measured on this interpreter, that beats a pure-Python
linear merge at every size.

Instances are immutable snapshots: every operation returns a new list
and :class:`IdStore` mutations swap whole columns, so a posting list
handed to a reader stays internally consistent even while maintenance
rewrites the store it came from.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Set, Union

from repro.analysis.guards import hot_path

if TYPE_CHECKING:
    from repro.storage.segments import MmapColumn

#: The id-column backing: a heap ``array`` or a zero-copy mmap view.
#: Both expose ``itemsize``/``typecode``, integer and slice indexing
#: (slices yield real ``array`` objects), iteration and ``len``.
IdColumn = Union[array, "MmapColumn"]

#: Length ratio beyond which two-way intersection gallops instead of
#: hash-intersecting (measured crossover on CPython: gallop wins past
#: roughly 16:1 skew, hashing the smaller side wins below it).
GALLOP_RATIO = 16

_ID_TYPECODE = "I" if array("I").itemsize >= 4 else "L"
_WIDE_TYPECODE = "Q"
_ID_MAX = (1 << (array(_ID_TYPECODE).itemsize * 8)) - 1


def id_array(values: Iterable[int] = ()) -> array:
    """A compact unsigned array for ids, widening only when values demand it."""
    values = list(values)
    if values and (max(values) > _ID_MAX):
        return array(_WIDE_TYPECODE, values)
    return array(_ID_TYPECODE, values)


def _bisectable(ids: IdColumn) -> Sequence[int]:
    """``ids`` in a form ``bisect`` probes in C.

    An mmap column answers each ``__getitem__`` with a Python call, so it
    is bisected through its memoryview; a heap array already is one.
    """
    return ids if isinstance(ids, array) else ids._cast()


def _concat(parts: Sequence[IdColumn]) -> array:
    """Concatenate id columns into one array, widening if any part needs it.

    ``array + array`` requires matching typecodes; a store whose flat
    column widened to ``'Q'`` (graph ids past 2^32) must keep splicing
    against fresh ``'I'`` blocks, so concatenation goes through
    ``extend`` at the widest itemsize among the parts.
    """
    widest = max(parts, key=lambda p: p.itemsize)
    out = array(widest.typecode)
    for part in parts:
        if isinstance(part, array) and part.typecode == out.typecode:
            out.extend(part)
        else:
            # array.extend refuses a mismatched-typecode array; feeding
            # it element-wise takes the generic path and re-widens.
            out.extend(iter(part))
    return out


class PostingList:
    """An immutable, strictly increasing column of non-negative ids."""

    __slots__ = ("_ids",)

    _ids: IdColumn

    def __init__(self, ids: Iterable[int] = ()) -> None:
        unique = sorted(set(ids))
        if unique and unique[0] < 0:
            raise ValueError("posting lists hold non-negative ids only")
        self._ids = id_array(unique)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _wrap(cls, ids: IdColumn) -> "PostingList":
        """Adopt an already sorted+deduplicated array without copying."""
        out = cls.__new__(cls)
        out._ids = ids
        return out

    @classmethod
    def from_buffer(cls, ids: IdColumn) -> "PostingList":
        """Adopt a buffer-backed id column zero-copy.

        The column (typically a :class:`~repro.storage.segments.
        MmapColumn` over a mapped segment file) is trusted to be sorted
        strictly increasing — segment writers only ever emit columns in
        that form, and validating here would fault in every page of a
        lazily mapped file, defeating the O(metadata) cold open.  All
        read paths (``intersect``/``intersect_many``, iteration, binary
        search) behave identically over either backing.
        """
        out = cls.__new__(cls)
        out._ids = ids
        return out

    @classmethod
    def from_sorted(cls, ids: Sequence[int]) -> "PostingList":
        """Build from a strictly increasing sequence (validated)."""
        for i in range(1, len(ids)):
            if ids[i - 1] >= ids[i]:
                raise ValueError(
                    f"ids must be strictly increasing, got "
                    f"{ids[i - 1]} before {ids[i]} at position {i}"
                )
        if len(ids) and ids[0] < 0:
            raise ValueError("posting lists hold non-negative ids only")
        return cls._wrap(id_array(ids))

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return len(self._ids) > 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __getitem__(self, index: int) -> int:
        return self._ids[index]

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, int) or value < 0:
            return False
        ids = _bisectable(self._ids)
        i = bisect_left(ids, value)
        return i < len(ids) and ids[i] == value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PostingList):
            return len(self._ids) == len(other._ids) and all(
                a == b for a, b in zip(self._ids, other._ids)
            )
        if isinstance(other, (set, frozenset)):
            return len(self._ids) == len(other) and all(
                gid in other for gid in self._ids
            )
        return NotImplemented

    def __repr__(self) -> str:
        preview = ", ".join(map(str, self._ids[:8]))
        suffix = ", ..." if len(self._ids) > 8 else ""
        return f"PostingList([{preview}{suffix}] n={len(self._ids)})"

    def to_frozenset(self) -> frozenset:
        return frozenset(self._ids)

    def spliced(self, gid: int, present: bool) -> "PostingList":
        """This list with ``gid`` spliced in (``present``) or out.

        Returns ``self`` when ``gid`` already is where it belongs, and
        otherwise a fresh column built by array slicing.
        """
        ids = self._ids
        flat = _bisectable(ids)
        i = bisect_left(flat, gid)
        if (i < len(flat) and flat[i] == gid) == present:
            return self
        if present:
            return PostingList._wrap(_concat([ids[:i], id_array([gid]), ids[i:]]))
        return PostingList._wrap(_concat([ids[:i], ids[i + 1 :]]))

    def nbytes(self) -> int:
        """Resident bytes of the id column."""
        return self._ids.itemsize * len(self._ids)

    # ------------------------------------------------------------------
    # set algebra
    # ------------------------------------------------------------------
    @hot_path
    def intersect(self, other: "PostingList") -> "PostingList":
        """Two-way intersection, galloping when lengths are skewed."""
        small, large = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        if not small:
            return PostingList._wrap(id_array())
        if len(large) >= GALLOP_RATIO * len(small):
            return small._gallop_into(large)
        # Comparable lengths: hash the smaller column, intersect at C
        # speed, and re-sort the (at most |small|-sized) result.
        common = frozenset(small._ids).intersection(large._ids)
        return PostingList._wrap(id_array(sorted(common)))

    def _gallop_into(self, large: "PostingList") -> "PostingList":
        ids = _bisectable(large._ids)
        out = id_array()
        lo, hi = 0, len(ids)
        for x in self._ids:
            lo = bisect_left(ids, x, lo, hi)
            if lo == hi:
                break
            if ids[lo] == x:
                out.append(x)
                lo += 1
        return PostingList._wrap(out)

    @staticmethod
    @hot_path
    def intersect_many(lists: Sequence["PostingList"]) -> "PostingList":
        """k-way intersection, smallest first.

        The inputs are ordered by ascending length so the running result
        can only shrink from the tightest starting point; each step then
        re-decides hash vs gallop from the *current* lengths (the
        adaptive part — as the intersection collapses, later steps
        degrade into cheap galloping probes).  Consecutive hash steps
        share one running ``set`` and the result is sorted back into a
        column only once at the end, so a k-way chain over
        comparable-length supports costs one sort, not k.  The first
        empty intermediate ends the chain, the Algorithm 1 short-circuit.
        """
        if not lists:
            raise ValueError("intersect_many needs at least one posting list")
        ordered = sorted(lists, key=len)
        column = ordered[0]
        running: Optional[Set[int]] = None
        for nxt in ordered[1:]:
            size = len(column) if running is None else len(running)
            if size == 0:
                break
            if len(nxt) >= GALLOP_RATIO * size:
                if running is not None:
                    column = PostingList._wrap(id_array(sorted(running)))
                    running = None
                column = column._gallop_into(nxt)
            else:
                if running is None:
                    running = set(column._ids)
                running.intersection_update(nxt._ids)
        if running is not None:
            return PostingList._wrap(id_array(sorted(running)))
        return column


class IdStore:
    """A mutable set of ids over immutable :class:`PostingList` snapshots.

    The heap backing of a feature's support set
    (:class:`~repro.core.feature.FeatureTree`) and of an exception list
    (:class:`~repro.core.feature.ShrunkTree`): ``add_graph`` and
    ``remove_graph`` swap in a fresh snapshot, so a posting list handed
    out earlier stays consistent.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: PostingList) -> None:
        self._ids = ids

    def graph_ids(self) -> PostingList:
        return self._ids

    def add_graph(self, gid: int) -> None:
        if gid < 0:
            raise ValueError(f"graph ids are non-negative, got {gid}")
        self._ids = self._ids.spliced(gid, True)

    def remove_graph(self, gid: int) -> None:
        self._ids = self._ids.spliced(gid, False)

    def nbytes(self) -> int:
        return self._ids.nbytes()
