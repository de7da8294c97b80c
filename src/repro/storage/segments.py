"""Memory-mapped segment storage — on-disk format v3 (LSM maintenance).

A v3 index is a *directory*: one small JSON manifest plus one or more
immutable binary **segment files**.  Each segment holds an interned
label table, the graph records, and every feature's ``gids`` column at
an 8-byte-aligned payload offset, so a reader can map the file once and
hand out zero-copy :class:`MmapColumn` views in place of heap ``array``
columns (:meth:`~repro.storage.posting.PostingList.from_buffer` adopts
them).  Segments written by earlier builds also carry per-feature
``offsets`` and ``centers`` columns (center locations); readers skip
them.  Opening is O(metadata): the
header is parsed eagerly, column pages fault in only when a read
touches them (``Segment.columns_touched`` counts first touches, which
is what the cold-open benchmark gate asserts on).

Maintenance is LSM-style.  ``insert`` buffers new graphs in the
database overlay and new support ids in per-feature memtables;
``delete`` records a **tombstone epoch** (the segment count at delete
time — data in earlier segments is dead, data flushed later is live,
so delete-then-reinsert of the same id just works).  A flush writes
one immutable *delta segment* and swaps the memtables for mapped
layers; readers always see ``base ∪ deltas − tombstones ∪ memtable``
through :class:`LsmIdStore`.  Compaction folds everything back into a
single base segment: the merge is prepared into a temp file outside
the writer lock (the engine reuses its generation-checked optimistic
pattern) and committed with an ``os.replace`` plus column swap.

File layout::

    magic  "TPISEG3\\n"                      8 bytes
    u64    header length (little-endian)     8 bytes
    bytes  header JSON (space-padded so the payload starts 8-aligned)
    bytes  payload: columns + graph blob, each 8-byte aligned

Header column descriptors are ``{"o": payload-relative byte offset,
"n": element count, "t": array typecode}``; graphs are stored as a
sorted gid column, a ``'Q'`` byte-offset column, and a concatenated
blob of interned JSON records decoded one graph at a time.

The header's ``"shrunk"`` list holds the γ-shrunk trees' exception
lists (:class:`~repro.core.feature.ShrunkTree`): per tree its key and
one ``gids`` column that flush, compaction and tombstones treat like a
feature's, through the same :class:`LsmIdStore`.  A base segment adds
each tree's record and cover; a delta segment, which only extends lists
the base defines, carries neither.  A segment written without the list
reads as having none.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.exceptions import GraphError, SerializationError
from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.storage.codec import decode_label, encode_label, graph_from_columns, graph_to_columns
from repro.storage.interner import LabelInterner
from repro.storage.posting import IdColumn, PostingList, _bisectable, id_array

if TYPE_CHECKING:
    from repro.core.feature import FeatureTree, ShrunkTree

MAGIC = b"TPISEG3\n"
MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "treepi-index"
MANIFEST_VERSION = 3

#: Buffered inserts+deletes that trigger a memtable flush to a delta segment.
DEFAULT_MEMTABLE_LIMIT = 64
#: Delta-segment count that makes ``needs_compaction()`` trip.
DEFAULT_COMPACT_THRESHOLD = 4

_ALIGN = 8
_GRAPH_CACHE_LIMIT = 256

#: One feature's flush/compaction payload:
#: ``(feature_id, key, center, tree, support gids)``.
FeaturePayload = Tuple[int, str, Tuple[int, ...], LabeledGraph, Sequence[int]]

#: One shrunk tree's flush/compaction payload:
#: ``(key, tree, cover, exception gids)``; a flush passes no tree and
#: no cover.
ShrunkPayload = Tuple[str, Optional[LabeledGraph], Tuple[int, ...], Sequence[int]]


class MmapColumn:
    """A read-only unsigned-int column viewing one mapped segment region.

    Drop-in for the heap ``array('I'/'Q')`` column inside a
    :class:`~repro.storage.posting.PostingList`: integer
    indexing, ``len``, iteration, ``itemsize``/``typecode``, and slicing
    (slices copy into a real ``array`` so splice/concat paths behave
    identically).  The ``memoryview.cast`` over the mapped region is
    deferred to the first element access — constructing columns at
    segment-open time therefore touches no pages, which keeps cold
    opens O(metadata).
    """

    __slots__ = ("_segment", "_offset", "_count", "typecode", "itemsize", "_view")

    def __init__(
        self, segment: "Segment", offset: int, count: int, typecode: str
    ) -> None:
        self._segment = segment
        self._offset = offset
        self._count = count
        self.typecode = typecode
        self.itemsize = array(typecode).itemsize
        self._view: Optional[memoryview] = None

    def _cast(self) -> memoryview:
        view = self._view
        if view is None:
            view = self._segment._column_view(
                self._offset, self._count * self.itemsize, self.typecode
            )
            self._view = view
        return view

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return array(self.typecode, self._cast()[index])
        return self._cast()[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._cast())

    def __repr__(self) -> str:
        return (
            f"MmapColumn({self._segment.path.name}, t={self.typecode!r}, "
            f"n={self._count})"
        )

    def release(self) -> None:
        """Drop the buffer export so the owning mmap can close."""
        view = self._view
        if view is not None:
            view.release()
            self._view = None


@dataclass
class SegmentFeature:
    """One feature's on-segment metadata plus its (lazy) support column."""

    feature_id: int
    key: str
    center: Tuple[int, ...]
    tree_record: Dict[str, Any]
    gids: MmapColumn

    @property
    def graph_count(self) -> int:
        """Support size, straight from header metadata (no page faults)."""
        return len(self.gids)

    def decode_tree(self, labels: Sequence[Any]) -> LabeledGraph:
        return graph_from_columns(self.tree_record, labels)

    def open_store(self) -> PostingList:
        """The support column as a zero-copy, lazily faulting posting list."""
        return PostingList.from_buffer(self.gids)


@dataclass
class SegmentShrunk:
    """One shrunk tree's on-segment metadata plus its (lazy) exception column.

    ``tree_record`` is None in a delta segment.
    """

    key: str
    cover: Tuple[int, ...]
    tree_record: Optional[Dict[str, Any]]
    gids: MmapColumn


class Segment:
    """One immutable, memory-mapped v3 segment file.

    The header (labels, graph/feature descriptors, tree records) is
    parsed eagerly; columns and graph records are decoded on demand.
    The file descriptor is closed immediately after mapping — POSIX
    keeps the mapping alive — so an open segment pins one mmap, not one
    fd.  ``columns_touched`` counts columns whose pages were actually
    cast (first element access), the observable the cold-open gate
    asserts to be zero right after :func:`repro.persistence.load_index`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.columns_touched = 0
        self._closed = False
        self._columns: List[MmapColumn] = []
        self._labels: Optional[List[Any]] = None
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError as exc:
            raise SerializationError(
                f"missing segment file {self.path}"
            ) from exc
        with handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:
                raise SerializationError(
                    f"cannot map segment file {self.path}: {exc}"
                ) from exc
        # The map must not leak if the header is invalid or lacks a
        # descriptor: release it on every non-success path, lexically in
        # the finally.
        ok = False
        try:
            header = self._parse_header(mapped)
            self._mm = mapped
            self._header = header
            self._payload_start = len(MAGIC) + 8 + header["_header_len"]
            gdesc = header["graphs"]
            self._graph_gids = self._column(gdesc["gids"])
            self._graph_blob_index = self._column(gdesc["blob_index"])
            self._blob_offset = self._payload_start + gdesc["blob"]["o"]
            self._features = [
                SegmentFeature(
                    feature_id=entry["id"],
                    key=entry["key"],
                    center=tuple(entry["center"]),
                    tree_record=entry["tree"],
                    gids=self._column(entry["gids"]),
                )
                for entry in header["features"]
            ]
            self._shrunk = [
                SegmentShrunk(
                    key=entry["key"],
                    cover=tuple(entry.get("cover", ())),
                    tree_record=entry.get("tree"),
                    gids=self._column(entry["gids"]),
                )
                for entry in header.get("shrunk", ())
            ]
            ok = True
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed segment header in {self.path}: "
                f"missing or mistyped {exc}"
            ) from exc
        finally:
            if not ok:
                mapped.close()

    def _parse_header(self, mapped: mmap.mmap) -> Dict[str, Any]:
        if len(mapped) < len(MAGIC) + 8 or mapped[: len(MAGIC)] != MAGIC:
            raise SerializationError(f"{self.path} is not a v3 segment file")
        (header_len,) = struct.unpack_from("<Q", mapped, len(MAGIC))
        start = len(MAGIC) + 8
        if start + header_len > len(mapped):
            raise SerializationError(
                f"truncated segment header in {self.path}"
            )
        try:
            header = json.loads(mapped[start : start + header_len].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SerializationError(
                f"corrupt segment header in {self.path}: {exc}"
            ) from exc
        if header.get("byteorder") != sys.byteorder:
            raise SerializationError(
                f"segment {self.path} was written on a "
                f"{header.get('byteorder')!r}-endian machine; this host is "
                f"{sys.byteorder!r}-endian"
            )
        header["_header_len"] = header_len
        return header

    def _column(self, desc: Dict[str, Any]) -> MmapColumn:
        column = MmapColumn(self, desc["o"], desc["n"], desc["t"])
        self._columns.append(column)
        return column

    def _column_view(self, offset: int, nbytes: int, typecode: str) -> memoryview:
        if self._closed:
            raise SerializationError(
                f"segment {self.path} is closed (stale reader view)"
            )
        start = self._payload_start + offset
        self.columns_touched += 1
        return memoryview(self._mm)[start : start + nbytes].cast(typecode)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def graph_count(self) -> int:
        """Graph records in this segment (header metadata, no faults)."""
        return len(self._graph_gids)

    def graph_gids(self) -> MmapColumn:
        """The sorted gid column (iterating it faults its pages)."""
        return self._graph_gids

    def labels(self) -> List[Any]:
        """The segment's interned label table, decoded once (header-only)."""
        labels = self._labels
        if labels is None:
            labels = [decode_label(record) for record in self._header["labels"]]
            self._labels = labels
        return labels

    def find_graph(self, gid: int) -> int:
        """Position of ``gid`` in the gid column, or ``-1``."""
        gids = _bisectable(self._graph_gids)
        i = bisect_left(gids, gid)
        if i < len(gids) and gids[i] == gid:
            return i
        return -1

    def decode_graph(self, gid: int) -> Optional[LabeledGraph]:
        """Decode one graph record, or ``None`` when absent."""
        i = self.find_graph(gid)
        if i < 0:
            return None
        index = self._graph_blob_index
        start = self._blob_offset + index[i]
        end = self._blob_offset + index[i + 1]
        try:
            record = json.loads(self._mm[start:end].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SerializationError(
                f"corrupt graph record {gid} in {self.path}: {exc}"
            ) from exc
        return graph_from_columns(record, self.labels(), graph_id=gid)

    def feature_entries(self) -> List[SegmentFeature]:
        return list(self._features)

    def shrunk_entries(self) -> List[SegmentShrunk]:
        return list(self._shrunk)

    def nbytes(self) -> int:
        return len(self._mm)

    def close(self) -> None:
        """Release every column view and unmap the file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for column in self._columns:
            column.release()
        self._mm.close()

    def __repr__(self) -> str:
        return (
            f"<Segment {self.path.name} graphs={self.graph_count} "
            f"features={len(self._features)} bytes={len(self._mm)}>"
        )


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def write_segment(
    path: Union[str, Path],
    graphs: Sequence[LabeledGraph],
    features: Sequence[FeaturePayload],
    shrunk: Sequence[ShrunkPayload] = (),
) -> None:
    """Write one immutable segment file.

    ``graphs`` must be sorted by ``graph_id``; each feature brings its
    sorted support ids.  The label interner is filled in canonical order
    (graphs first, then feature trees, then shrunk trees, in the given
    order), so identical inputs produce byte-identical files.  Without
    ``shrunk`` the file is the one a build without exception lists wrote.
    """
    interner = LabelInterner()
    gid_list: List[int] = []
    records: List[bytes] = []
    for graph in graphs:
        if graph.graph_id is None:
            raise SerializationError("segment graphs must carry a graph_id")
        gid_list.append(graph.graph_id)
        records.append(
            json.dumps(
                graph_to_columns(graph, interner), separators=(",", ":")
            ).encode("utf-8")
        )
    tree_records = [
        graph_to_columns(tree, interner) for _, _, _, tree, _ in features
    ]
    shrunk_records = [
        None if tree is None else graph_to_columns(tree, interner)
        for _, tree, _, _ in shrunk
    ]

    payload = bytearray()

    def put_column(values: Union[Sequence[int], array]) -> Dict[str, Any]:
        column = values if isinstance(values, array) else id_array(values)
        while len(payload) % _ALIGN:
            payload.append(0)
        desc = {"o": len(payload), "n": len(column), "t": column.typecode}
        payload.extend(column.tobytes())
        return desc

    blob_index = array("Q", [0])
    for record in records:
        blob_index.append(blob_index[-1] + len(record))
    gdesc: Dict[str, Any] = {
        "gids": put_column(gid_list),
        "blob_index": put_column(blob_index),
    }
    while len(payload) % _ALIGN:
        payload.append(0)
    gdesc["blob"] = {"o": len(payload), "len": int(blob_index[-1])}
    for record in records:
        payload.extend(record)

    fdescs: List[Dict[str, Any]] = []
    for (fid, key, center, _tree, gids), tree_record in zip(
        features, tree_records
    ):
        fdescs.append(
            {
                "id": fid,
                "key": key,
                "center": list(center),
                "tree": tree_record,
                "gids": put_column(gids),
            }
        )

    header: Dict[str, Any] = {
        "byteorder": sys.byteorder,
        "labels": [encode_label(label) for label in interner.labels()],
        "graphs": gdesc,
        "features": fdescs,
    }
    if shrunk:
        entries: List[Dict[str, Any]] = []
        for (key, _tree, cover, gids), tree_record in zip(shrunk, shrunk_records):
            entry: Dict[str, Any] = {"key": key, "gids": put_column(gids)}
            if tree_record is not None:
                entry.update(cover=list(cover), tree=tree_record)
            entries.append(entry)
        header["shrunk"] = entries
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    # Pad the header with spaces (JSON-transparent) so the payload
    # starts 8-byte aligned — every column offset is payload-relative
    # and itself aligned, so mapped casts never straddle element
    # boundaries.
    pad = (-(len(MAGIC) + 8 + len(header_bytes))) % _ALIGN
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(header_bytes) + pad))
        handle.write(header_bytes)
        handle.write(b" " * pad)
        handle.write(bytes(payload))


def feature_payloads(features: Iterable["FeatureTree"]) -> List[FeaturePayload]:
    """Segment payloads of features, merged (tombstones folded out)."""
    return [
        (f.feature_id, f.key, tuple(f.center), f.tree, list(f.store.graph_ids()))
        for f in features
    ]


def shrunk_payloads(shrunk: Iterable["ShrunkTree"]) -> List[ShrunkPayload]:
    """Segment payloads of exception lists, merged (tombstones folded out)."""
    return [
        (t.key, t.tree, t.cover, list(t.store.graph_ids())) for t in shrunk
    ]


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def read_manifest(root: Union[str, Path]) -> Dict[str, Any]:
    """Parse and shape-check the manifest of v3 directory ``root``.

    Anything but a well-formed manifest is a :class:`SerializationError`
    naming the file: bytes that are not UTF-8 JSON, a wrong format,
    version or byte order, or a required key missing or mistyped.
    """
    root = Path(root)
    path = root / MANIFEST_NAME
    try:
        with open(path, "rb") as handle:
            manifest = json.loads(handle.read())
    except FileNotFoundError as exc:
        raise SerializationError(
            f"{root} is not a v3 segment directory (missing {MANIFEST_NAME})"
        ) from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise SerializationError(f"{path} is not a {MANIFEST_FORMAT} manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise SerializationError(
            f"segment directory {root} declares version "
            f"{manifest.get('version')!r}; this build reads "
            f"v{MANIFEST_VERSION} segment directories"
        )
    if manifest.get("byteorder", sys.byteorder) != sys.byteorder:
        raise SerializationError(
            f"segment directory {root} was written on a "
            f"{manifest.get('byteorder')!r}-endian machine; this host is "
            f"{sys.byteorder!r}-endian"
        )
    _check_manifest_shape(manifest, path)
    return manifest


def _check_manifest_shape(manifest: Dict[str, Any], path: Path) -> None:
    """The keys a store reads: segment names, counters and tombstones."""
    segments = manifest.get("segments")
    if (
        not isinstance(segments, list)
        or not segments
        or not all(
            isinstance(name, str) and name and Path(name).name == name
            for name in segments
        )
    ):
        raise SerializationError(
            f"malformed manifest {path}: 'segments' must be a non-empty "
            f"list of segment file names, got {type(segments).__name__}"
        )
    for key in ("next_segment", "graphs"):
        value = manifest.get(key)
        if type(value) is not int or value < 0:
            raise SerializationError(
                f"malformed manifest {path}: {key!r} must be a "
                f"non-negative integer, got {type(value).__name__}"
            )
    tombstones = manifest.get("tombstones", {})
    if not isinstance(tombstones, dict) or not all(
        gid.isdecimal() and type(epoch) is int and epoch >= 0
        for gid, epoch in tombstones.items()
    ):
        raise SerializationError(
            f"malformed manifest {path}: 'tombstones' must map graph ids "
            "to non-negative segment epochs"
        )


def write_manifest(root: Union[str, Path], manifest: Dict[str, Any]) -> None:
    """Atomically (temp + rename) rewrite the manifest."""
    path = Path(root) / MANIFEST_NAME
    tmp = path.with_name(MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, sort_keys=True)
    os.replace(tmp, path)


def initialize_directory(
    root: Union[str, Path],
    graphs: Sequence[LabeledGraph],
    features: Sequence[FeaturePayload],
    next_graph_id: int,
    extra: Optional[Dict[str, Any]] = None,
    shrunk: Sequence[ShrunkPayload] = (),
) -> None:
    """Create (or overwrite) a v3 directory with one base segment.

    Stale segment files from a previous save are removed first; the
    manifest is written last, atomically, so a crash mid-save never
    yields a directory whose manifest references missing data.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for stale in sorted(root.glob("*.seg")) + sorted(root.glob("*.tmp")):
        stale.unlink()
    name = "seg-000000.seg"
    write_segment(root / name, graphs, features, shrunk)
    manifest: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "byteorder": sys.byteorder,
        "segments": [name],
        "next_segment": 1,
        "graphs": len(graphs),
        "next_graph_id": next_graph_id,
        "tombstones": {},
    }
    if extra:
        manifest.update(extra)
    write_manifest(root, manifest)


# ----------------------------------------------------------------------
# merged read views
# ----------------------------------------------------------------------
def _live_ids(
    layers: Sequence[Tuple[int, PostingList]],
    pending: Iterable[int],
    tombstones: Mapping[int, int],
) -> PostingList:
    """The live ids of LSM layers: ``layers − tombstones ∪ pending``."""
    if len(layers) == 1 and not pending and not tombstones:
        # Single layer, nothing buffered, nothing deleted anywhere: hand
        # out the layer's own (possibly mmap-backed) column.
        return layers[0][1]
    live = set(pending)
    for epoch, ids in layers:
        for gid in ids:
            if epoch >= tombstones.get(gid, 0):
                live.add(gid)
    return PostingList._wrap(id_array(sorted(live)))


class LsmIdStore:
    """One id set's merged view: id layers − tombstones ∪ memtable.

    Backs a feature's support set
    (:class:`~repro.core.feature.FeatureTree`) and an exception list
    (:class:`~repro.core.feature.ShrunkTree`) on a v3 index.  Layers are
    immutable posting lists (usually mmap-backed) tagged with the
    **epoch** — the global segment index they were flushed at.  A graph
    id in layer ``j`` is live iff ``j >= tombstones.get(gid, 0)``:
    deleting records the then-current segment count as the gid's epoch,
    killing everything older while leaving later re-inserts visible.
    The memtable holds unflushed ids and is always live (deletes pop it
    immediately).

    The merged view is cached.  An insert or delete splices its one gid
    into or out of it; a flush or compaction, which swaps layers,
    re-merges.
    """

    __slots__ = ("_tomb", "_layers", "_mem", "_gids")

    def __init__(self, tombstones: Dict[int, int]) -> None:
        self._tomb = tombstones
        self._layers: List[Tuple[int, PostingList]] = []
        self._mem: Set[int] = set()
        self._gids: Optional[PostingList] = None

    @property
    def pending(self) -> Set[int]:
        """The unflushed memtable."""
        return self._mem

    @property
    def has_layers(self) -> bool:
        return bool(self._layers)

    def flush_to_layer(self, epoch: int, ids: PostingList) -> None:
        self._layers.append((epoch, ids))
        self._mem = set()
        self._gids = None

    def reset_layers(self, layers: Iterable[Tuple[int, PostingList]]) -> None:
        self._layers = list(layers)
        self._mem = set()
        self._gids = None

    def graph_ids(self) -> PostingList:
        cached = self._gids
        if cached is None:
            cached = self._gids = _live_ids(self._layers, self._mem, self._tomb)
        return cached

    def add_graph(self, gid: int) -> None:
        if gid < 0:
            raise ValueError(f"graph ids are non-negative, got {gid}")
        self._mem.add(gid)
        if self._gids is not None:
            self._gids = self._gids.spliced(gid, True)

    def remove_graph(self, gid: int) -> None:
        """Drop ``gid`` from the memtable and the view; layer data dies by tombstone."""
        self._mem.discard(gid)
        if self._gids is not None:
            self._gids = self._gids.spliced(gid, False)

    def nbytes(self) -> int:
        """Layer bytes plus 8 bytes per buffered id."""
        return sum(ids.nbytes() for _, ids in self._layers) + 8 * len(self._mem)


class SegmentGraphDatabase(GraphDatabase):
    """A :class:`GraphDatabase` resolving graphs lazily from segments.

    Unflushed inserts live in ``_overlay``; decoded graphs are memoized
    (cleared wholesale at a cap, so concurrent read-side lookups never
    race an eviction structure); ``remove`` of a segment-resident
    graph records the tombstone epoch — the single place deletions are
    written.  ``__len__`` is O(1) off the manifest-carried live count,
    so index construction over a cold directory faults no pages.
    """

    def __init__(
        self,
        segments: List[Segment],
        tombstones: Dict[int, int],
        next_id: int,
        live_count: int,
    ) -> None:
        super().__init__()
        self._segments = segments
        self._tomb = tombstones
        self._overlay: Dict[int, LabeledGraph] = {}
        self._decoded: Dict[int, LabeledGraph] = {}
        self._live: Optional[List[int]] = None
        self._live_count = live_count
        self._next_id = next_id

    # -- plumbing shared with SegmentStore -----------------------------
    @property
    def next_id(self) -> int:
        return self._next_id

    def overlay_graphs(self) -> List[LabeledGraph]:
        """Unflushed inserts, sorted by graph id (the flush payload)."""
        return [self._overlay[gid] for gid in sorted(self._overlay)]

    def overlay_count(self) -> int:
        return len(self._overlay)

    def note_flushed(self) -> None:
        """Overlay graphs are now segment-resident; keep them decoded."""
        if len(self._decoded) + len(self._overlay) > _GRAPH_CACHE_LIMIT:
            self._decoded = {}
        self._decoded.update(self._overlay)
        self._overlay = {}

    def note_compacted(self) -> None:
        """Segments were folded; cached decodes stay valid, views don't."""
        self.note_flushed()
        self._live = None
        self._universe = None

    # -- GraphDatabase surface -----------------------------------------
    def add(self, graph: LabeledGraph, graph_id: Optional[int] = None) -> int:
        if graph_id is None:
            gid = self._next_id
        else:
            if graph_id in self:
                raise GraphError(f"graph id {graph_id} already in use")
            gid = graph_id
        self._next_id = max(self._next_id, gid + 1)
        graph.graph_id = gid
        self._overlay[gid] = graph
        self._live_count += 1
        self._live = None
        self._universe = None
        return gid

    def remove(self, graph_id: int) -> LabeledGraph:
        removed = self._overlay.pop(graph_id, None)
        if removed is None:
            removed = self._resolve(graph_id)
            if removed is None:
                raise GraphError(f"no graph with id {graph_id}")
            self._tomb[graph_id] = len(self._segments)
            self._decoded.pop(graph_id, None)
        self._live_count -= 1
        self._live = None
        self._universe = None
        return removed

    def _resolve(self, gid: int) -> Optional[LabeledGraph]:
        graph = self._overlay.get(gid)
        if graph is not None:
            return graph
        graph = self._decoded.get(gid)
        if graph is not None:
            return graph
        epoch = self._tomb.get(gid, 0)
        for layer in range(len(self._segments) - 1, epoch - 1, -1):
            graph = self._segments[layer].decode_graph(gid)
            if graph is not None:
                if len(self._decoded) >= _GRAPH_CACHE_LIMIT:
                    self._decoded = {}
                self._decoded[gid] = graph
                return graph
        return None

    def __len__(self) -> int:
        return self._live_count

    def __contains__(self, graph_id: int) -> bool:
        return self._resolve(graph_id) is not None

    def __getitem__(self, graph_id: int) -> LabeledGraph:
        graph = self._resolve(graph_id)
        if graph is None:
            raise GraphError(f"no graph with id {graph_id}")
        return graph

    def __iter__(self) -> Iterator[LabeledGraph]:
        for gid in self._live_ids():
            yield self[gid]

    def _live_ids(self) -> List[int]:
        live_list = self._live
        if live_list is None:
            live = set(self._overlay)
            for layer, segment in enumerate(self._segments):
                for gid in segment.graph_gids():
                    if layer >= self._tomb.get(gid, 0):
                        live.add(gid)
            live_list = sorted(live)
            self._live = live_list
        return live_list

    def graph_ids(self) -> List[int]:
        return list(self._live_ids())

    def universe_posting(self) -> PostingList:
        if self._universe is None:
            self._universe = PostingList._wrap(id_array(self._live_ids()))
        return self._universe

    def average_edge_count(self) -> float:
        ids = self._live_ids()
        if not ids:
            return 0.0
        return sum(self[gid].num_edges for gid in ids) / len(ids)


# ----------------------------------------------------------------------
# LSM orchestration
# ----------------------------------------------------------------------
@dataclass
class CompactionPlan:
    """A fully merged segment staged in a temp file, awaiting commit.

    Side-effect free for readers: the temp file is invisible to the
    manifest.  :meth:`discard` is the race path — the engine drops the
    plan when its generation check shows maintenance interleaved with
    the merge.
    """

    tmp_path: Path
    live_graphs: int

    def discard(self) -> None:
        try:
            self.tmp_path.unlink()
        except OSError:
            pass


class SegmentStore:
    """The on-disk side of one mmap-backed index.

    Owns the segment directory: the open :class:`Segment` list (shared,
    in the same order, with the :class:`SegmentGraphDatabase` and every
    :class:`LsmIdStore` layer epoch), the manifest, the tombstone map, and
    the flush/compaction state machine.  All mutating entry points are
    called with the serving engine's write lock held (the index methods
    delegating here carry ``@guarded_by`` contracts); the exception is
    :meth:`prepare_compaction`, which is read-only by design so the
    expensive merge can run under the read lock.
    """

    def __init__(
        self,
        root: Union[str, Path],
        manifest: Dict[str, Any],
        segments: List[Segment],
        memtable_limit: int = DEFAULT_MEMTABLE_LIMIT,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
    ) -> None:
        if memtable_limit < 1:
            raise ValueError(
                f"memtable_limit must be >= 1, got {memtable_limit}"
            )
        if compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {compact_threshold}"
            )
        self.root = Path(root)
        self._manifest = manifest
        self._segments = segments
        self.tombstones: Dict[int, int] = {
            int(gid): epoch
            for gid, epoch in manifest.get("tombstones", {}).items()
        }
        self._memtable_limit = memtable_limit
        self._compact_threshold = compact_threshold
        self._dirty_ops = 0
        self._db: Optional[SegmentGraphDatabase] = None
        self._features: List["FeatureTree"] = []
        self._shrunk: List["ShrunkTree"] = []

    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        memtable_limit: int = DEFAULT_MEMTABLE_LIMIT,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
    ) -> "SegmentStore":
        """Open a v3 directory: parse the manifest, map every segment.

        O(manifest + headers): no posting column is read.
        """
        root = Path(root)
        manifest = read_manifest(root)
        segments: List[Segment] = []
        ok = False
        try:
            for name in manifest["segments"]:
                segments.append(Segment(root / name))
            ok = True
        finally:
            if not ok:
                for segment in segments:
                    segment.close()
        return cls(
            root,
            manifest,
            segments,
            memtable_limit=memtable_limit,
            compact_threshold=compact_threshold,
        )

    def attach(
        self,
        db: SegmentGraphDatabase,
        features: List["FeatureTree"],
        shrunk: Sequence["ShrunkTree"] = (),
    ) -> None:
        """Bind the live database/feature objects this store maintains.

        ``features`` must be the index's *own* list (not a copy) so
        features materialized by later inserts are flushed too.
        ``shrunk`` holds the exception lists, which no insert adds to.
        """
        self._db = db
        self._features = features
        self._shrunk = list(shrunk)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def manifest(self) -> Dict[str, Any]:
        return self._manifest

    @property
    def segments(self) -> List[Segment]:
        return self._segments

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def delta_count(self) -> int:
        return max(0, len(self._segments) - 1)

    @property
    def memtable_limit(self) -> int:
        return self._memtable_limit

    @property
    def compact_threshold(self) -> int:
        return self._compact_threshold

    def columns_touched(self) -> int:
        """Total columns faulted across segments (cold-open observable)."""
        return sum(segment.columns_touched for segment in self._segments)

    def nbytes(self) -> int:
        return sum(segment.nbytes() for segment in self._segments)

    def describe(self) -> List[Dict[str, Any]]:
        """Per-segment stats for ``repro index segments`` (faults gid
        columns — a diagnostics call, not a serving path)."""
        rows: List[Dict[str, Any]] = []
        for layer, segment in enumerate(self._segments):
            total = segment.graph_count
            live = sum(
                1
                for gid in segment.graph_gids()
                if layer >= self.tombstones.get(gid, 0)
            )
            rows.append(
                {
                    "segment": segment.path.name,
                    "graphs": total,
                    "live": live,
                    "tombstoned": total - live,
                    "features": len(segment.feature_entries()),
                    "bytes": segment.nbytes(),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # write-path hooks (index calls these; engine holds the write lock)
    # ------------------------------------------------------------------
    def adopt_feature(self, feature: "FeatureTree") -> None:
        """Back a freshly materialized feature with an (empty) LSM store."""
        feature.store = LsmIdStore(self.tombstones)

    def note_insert(self) -> None:
        self._dirty_ops += 1

    def note_delete(self, graph_id: int) -> None:
        self._dirty_ops += 1

    def should_flush(self) -> bool:
        return self._dirty_ops >= self._memtable_limit

    def needs_compaction(self) -> bool:
        return self.delta_count >= self._compact_threshold

    def flush(self) -> bool:
        """Persist buffered state: write a delta segment, sync the manifest.

        The delta carries the overlay graphs plus every feature with a
        non-empty memtable — and every feature with *no* layer yet, even
        if its memtable is empty, so a feature materialized by an insert
        whose graph was deleted before the flush still survives reopen
        (the σ(1)=1 completeness floor must not silently lose keys).
        Exception lists with a non-empty memtable ride along.
        Pure-tombstone churn needs no new segment; the manifest rewrite
        alone persists it.  Returns True when a segment was written.
        """
        db = self._db
        if db is None:
            raise SerializationError("segment store is not attached yet")
        overlay = db.overlay_graphs()
        include = [
            feature
            for feature in self._features
            if isinstance(feature.store, LsmIdStore)
            and (feature.store.pending or not feature.store.has_layers)
        ]
        lists = [
            shrunk
            for shrunk in self._shrunk
            if isinstance(shrunk.store, LsmIdStore) and shrunk.store.pending
        ]
        wrote = False
        if overlay or include or lists:
            epoch = len(self._segments)
            name = f"seg-{self._manifest['next_segment']:06d}.seg"
            self._manifest["next_segment"] += 1
            payloads: List[FeaturePayload] = [
                (
                    feature.feature_id,
                    feature.key,
                    tuple(feature.center),
                    feature.tree,
                    sorted(feature.store.pending),
                )
                for feature in include
            ]
            write_segment(
                self.root / name,
                overlay,
                payloads,
                [(t.key, None, (), sorted(t.store.pending)) for t in lists],
            )
            segment = Segment(self.root / name)
            self._segments.append(segment)
            self._manifest["segments"].append(name)
            by_key = {entry.key: entry for entry in segment.feature_entries()}
            for feature in include:
                assert isinstance(feature.store, LsmIdStore)
                feature.store.flush_to_layer(
                    epoch, by_key[feature.key].open_store()
                )
            columns = self._exception_columns(segment)
            for shrunk in lists:
                assert isinstance(shrunk.store, LsmIdStore)
                shrunk.store.flush_to_layer(epoch, columns[shrunk.key])
            db.note_flushed()
            wrote = True
        self._sync_manifest()
        self._dirty_ops = 0
        return wrote

    def prepare_compaction(self) -> Optional[CompactionPlan]:
        """Merge everything into a temp segment file (read-lock safe).

        A full checkpoint: live graphs (overlay included) and the fully
        merged support column of every feature (memtables included,
        tombstones folded out).  Touches no visible state — the caller
        commits under the write lock after its generation check, or
        discards the plan.  Returns None when there is nothing to fold.
        """
        db = self._db
        if db is None:
            raise SerializationError("segment store is not attached yet")
        if len(self._segments) <= 1 and not self.tombstones:
            return None
        live = db.graph_ids()
        graphs = [db[gid] for gid in live]
        tmp = self.root / "compact-pending.tmp"
        write_segment(
            tmp,
            graphs,
            feature_payloads(self._features),
            shrunk_payloads(self._shrunk),
        )
        return CompactionPlan(tmp_path=tmp, live_graphs=len(live))

    def commit_compaction(self, plan: CompactionPlan) -> None:
        """Swap the merged segment in (write lock held, no readers).

        ``os.replace`` publishes the file, the column swap republishes
        the stores, tombstones reset (their dead data is physically
        gone), and only then are the superseded segments closed and
        unlinked — no in-flight view can reference them because the
        engine cleared its plan/result caches before releasing the lock.
        """
        db = self._db
        if db is None:
            raise SerializationError("segment store is not attached yet")
        name = f"seg-{self._manifest['next_segment']:06d}.seg"
        self._manifest["next_segment"] += 1
        final = self.root / name
        os.replace(plan.tmp_path, final)
        segment = Segment(final)
        old_segments = list(self._segments)
        old_names = list(self._manifest["segments"])
        self._segments[:] = [segment]
        self._manifest["segments"] = [name]
        self.tombstones.clear()
        by_key = {entry.key: entry for entry in segment.feature_entries()}
        for feature in self._features:
            assert isinstance(feature.store, LsmIdStore)
            feature.store.reset_layers([(0, by_key[feature.key].open_store())])
        columns = self._exception_columns(segment)
        for shrunk in self._shrunk:
            assert isinstance(shrunk.store, LsmIdStore)
            ids = columns[shrunk.key]
            shrunk.store.reset_layers([(0, ids)] if ids else [])
        db.note_compacted()
        for old in old_segments:
            old.close()
        for old_name in old_names:
            try:
                (self.root / old_name).unlink()
            except OSError:
                pass
        self._sync_manifest()
        self._dirty_ops = 0

    def close(self) -> None:
        """Unmap every segment (the directory stays reopenable)."""
        for segment in self._segments:
            segment.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _exception_columns(segment: Segment) -> Dict[str, PostingList]:
        return {
            entry.key: PostingList.from_buffer(entry.gids)
            for entry in segment.shrunk_entries()
        }

    def _sync_manifest(self) -> None:
        db = self._db
        assert db is not None
        self._manifest["graphs"] = len(db)
        self._manifest["next_graph_id"] = db.next_id
        self._manifest["tombstones"] = {
            str(gid): epoch for gid, epoch in sorted(self.tombstones.items())
        }
        write_manifest(self.root, self._manifest)
