"""Memory-mapped segment storage — on-disk format v3 (LSM maintenance).

A v3 index is a *directory*: one small JSON manifest plus one or more
immutable binary **segment files**.  Each segment holds an interned
label table, the graph records, and one id column per indexed tree at
an 8-byte-aligned payload offset, so a reader can map the file once and
hand out zero-copy :class:`MmapColumn` views in place of heap ``array``
columns (:meth:`~repro.storage.posting.PostingList.from_buffer` adopts
them).  Segments written by earlier builds also carry per-feature
``offsets`` and ``centers`` columns (center locations); readers skip
them.  Opening is O(metadata): the header is parsed eagerly and every
column descriptor is checked against the mapped size (a truncated file
is refused at open), while column pages fault in only when a read
touches them (``Segment.columns_touched`` counts first touches, which
is what the cold-open benchmark gate asserts on).

Features and the γ-shrunk trees' exception lists (both
:class:`~repro.core.feature.IndexedTree`) travel one path: one header
entry type (:class:`SegmentEntry`), one payload type
(:data:`TreePayload`) and one loop per stage of write, flush,
compaction and open.  The header keeps them in its ``"features"`` and
``"shrunk"`` lists.  An entry carries the tree's record only in the
segment that defines the tree: a base defines every tree, a delta only
the features an insert made since the last flush.  Every other delta
entry is a ``key`` and its ``gids``, extending a tree an earlier
segment defines.  A segment without ``"shrunk"`` has no lists.

Maintenance is LSM-style.  ``insert`` buffers new graphs in the
database overlay and new ids in the trees' memtables; ``delete``
records a **tombstone epoch** (the segment count at delete time — data
in earlier segments is dead, data flushed later is live, so
delete-then-reinsert of the same id just works; :func:`live_ids` is the
rule).  A flush writes one immutable *delta segment* holding the
overlay graphs and every tree with buffered ids or with no record on
disk yet, and swaps those memtables for mapped layers;
:meth:`LsmIdStore.graph_ids` merges ``base ∪ deltas − tombstones ∪
memtable`` when called, which only a tree's first bitmap build,
compaction and save do (queries read the trees' bitmaps, which
maintenance keeps current).  Compaction folds everything back into a
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
from itertools import chain, count
from pathlib import Path
from typing import (
    AbstractSet,
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

from repro.core.feature import FeatureTree, IndexedTree, ShrunkTree
from repro.exceptions import GraphError, ReproError, SerializationError
from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.storage.codec import decode_label, encode_label, graph_from_columns, graph_to_columns
from repro.storage.interner import LabelInterner
from repro.storage.posting import PostingList, _bisectable, id_array

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

#: The header lists of indexed trees: features, and exception lists.
FEATURES = "features"
SHRUNK = "shrunk"
_NOUNS = {FEATURES: "feature", SHRUNK: "exception list"}

#: One indexed tree's segment payload: the tree and its sorted ids.
TreePayload = Tuple[IndexedTree, Sequence[int]]


def _ident(tree: IndexedTree) -> Tuple[str, str]:
    """A tree's header list and key: what names it across segments."""
    if isinstance(tree, FeatureTree):
        return FEATURES, tree.key
    assert isinstance(tree, ShrunkTree)
    return SHRUNK, tree.key


def live_ids(
    layers: Iterable[Tuple[int, Iterable[int]]], tombstones: Mapping[int, int]
) -> Iterator[int]:
    """The ids of epoch-tagged ``layers`` that no tombstone kills.

    An id in the layer flushed at epoch ``j`` is live iff
    ``j >= tombstones.get(id, 0)``: a delete records the then-current
    segment count, killing every older copy while a later re-insert
    stays visible.
    """
    for epoch, ids in layers:
        for gid in ids:
            if epoch >= tombstones.get(gid, 0):
                yield gid


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
class SegmentEntry:
    """One indexed tree's header entry plus its (lazy) id column.

    ``kind`` is the header list holding it, :data:`FEATURES` or
    :data:`SHRUNK`.  ``record`` is the entry as written when it defines
    the tree (it has a ``"tree"``), and None when it only extends a tree
    an earlier segment defines.
    """

    kind: str
    key: str
    gids: MmapColumn
    record: Optional[Dict[str, Any]]


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
            blob = gdesc["blob"]
            self._check_extent(blob["o"], blob["len"], "graph blob")
            self._blob_offset = self._payload_start + blob["o"]
            self._entries = [
                SegmentEntry(
                    kind=kind,
                    key=entry["key"],
                    gids=self._column(entry["gids"]),
                    record=entry if "tree" in entry else None,
                )
                for kind, entries in (
                    (FEATURES, header[FEATURES]),
                    (SHRUNK, header.get(SHRUNK, ())),
                )
                for entry in entries
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
        offset, length = desc["o"], desc["n"]
        column = MmapColumn(self, offset, length, desc["t"])
        self._check_extent(offset, length * column.itemsize, "column")
        self._columns.append(column)
        return column

    def _check_extent(self, offset: Any, nbytes: Any, what: str) -> None:
        """Refuse a payload region the mapped file does not hold whole.

        Header arithmetic only, so it faults no column page: a truncated
        or corrupt file fails at open, naming itself, instead of reading
        short columns later.
        """
        if type(offset) is not int or type(nbytes) is not int:
            raise TypeError(f"{what} extent ({offset!r}, {nbytes!r})")
        end = self._payload_start + offset + nbytes
        if offset < 0 or nbytes < 0 or offset % _ALIGN or end > len(self._mm):
            raise SerializationError(
                f"truncated or corrupt segment {self.path}: {what} of "
                f"{nbytes} bytes at payload offset {offset} ends at byte "
                f"{end} of a {len(self._mm)}-byte file"
            )

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
        return self.decode_record(record, graph_id=gid)

    def decode_record(
        self, record: Dict[str, Any], graph_id: Optional[int] = None
    ) -> LabeledGraph:
        """Decode one interned graph record: a graph, or a header tree.

        A record the graph layer refuses (a self-loop, say) is a
        :class:`SerializationError` naming this file.
        """
        try:
            return graph_from_columns(record, self.labels(), graph_id=graph_id)
        except ReproError as exc:
            raise SerializationError(
                f"malformed graph record in {self.path}: {exc}"
            ) from exc

    def entries(self) -> List[SegmentEntry]:
        """Every indexed tree's entry: the features, then the lists."""
        return list(self._entries)

    def define_tree(self, entry: SegmentEntry, store: "LsmIdStore") -> IndexedTree:
        """The tree ``entry`` defines, backed by ``store``.

        An entry that defines nothing, or whose record the tree layer
        refuses, is a :class:`SerializationError` naming this file.
        """
        record = entry.record
        noun = _NOUNS[entry.kind]
        if record is None:
            raise SerializationError(
                f"{noun} {entry.key!r} in {self.path} extends no "
                f"{noun} an earlier segment defines"
            )
        try:
            tree = self.decode_record(record["tree"])
            if entry.kind == FEATURES:
                return FeatureTree(
                    feature_id=record["id"],
                    tree=tree,
                    key=entry.key,
                    center=tuple(record["center"]),
                    store=store,
                )
            return ShrunkTree(
                key=entry.key,
                tree=tree,
                cover=tuple(record.get("cover", ())),
                store=store,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"malformed {noun} record in {self.path}: missing or "
                f"mistyped {exc}"
            ) from exc

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
            f"trees={len(self._entries)} bytes={len(self._mm)}>"
        )


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def write_segment(
    path: Union[str, Path],
    graphs: Sequence[LabeledGraph],
    trees: Sequence[TreePayload],
    defines: Optional[AbstractSet[IndexedTree]] = None,
) -> None:
    """Write one immutable segment file.

    ``graphs`` must be sorted by ``graph_id``; ``trees`` lists the
    features, then the exception lists, each with its sorted ids.  The
    label interner is filled in canonical order (graphs first, then the
    trees' records, in the given order), so identical inputs produce
    byte-identical files.  A tree's record (a feature's id, center and
    tree; a list's cover and tree) is written only when this segment
    defines the tree: every tree when ``defines`` is None (a base
    segment), else the trees in ``defines``.
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

    header: Dict[str, Any] = {
        "byteorder": sys.byteorder,
        "labels": [],
        "graphs": gdesc,
        FEATURES: [],
    }
    for tree, gids in trees:
        define = defines is None or tree in defines
        kind: str
        entry: Dict[str, Any] = {"key": tree.key}
        if isinstance(tree, FeatureTree):
            kind = FEATURES
            if define:
                entry = {
                    "id": tree.feature_id,
                    "key": tree.key,
                    "center": list(tree.center),
                    "tree": graph_to_columns(tree.tree, interner),
                }
            entry["gids"] = put_column(gids)
        else:
            assert isinstance(tree, ShrunkTree)
            kind = SHRUNK
            entry["gids"] = put_column(gids)
            if define:
                entry.update(
                    cover=list(tree.cover), tree=graph_to_columns(tree.tree, interner)
                )
        header.setdefault(kind, []).append(entry)
    header["labels"] = [encode_label(label) for label in interner.labels()]
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


def tree_payloads(trees: Iterable[IndexedTree]) -> List[TreePayload]:
    """Segment payloads of ``trees``, merged (tombstones folded out)."""
    return [(tree, list(tree.store.graph_ids())) for tree in trees]


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


def segment_name(number: int) -> str:
    """The file name of segment ``number``."""
    return f"seg-{number:06d}.seg"


def initialize_directory(
    root: Union[str, Path],
    graphs: Sequence[LabeledGraph],
    trees: Sequence[TreePayload],
    next_graph_id: int,
    extra: Optional[Dict[str, Any]] = None,
) -> None:
    """Create a v3 directory with one base segment, or overwrite one.

    Crash-safe: the base goes to a temp file that is renamed to the
    first segment name no file in ``root`` has (``seg-000000.seg`` in a
    fresh directory), so no segment the old manifest names is touched.
    The manifest swap (temp + rename) then publishes the new directory,
    and only after it are the segments the new manifest does not name
    removed.  A crash at any point leaves the old directory or the new
    one, each loadable.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    number = next(n for n in count() if not (root / segment_name(n)).exists())
    name = segment_name(number)
    tmp = root / f"{name}.tmp"
    write_segment(tmp, graphs, trees)
    os.replace(tmp, root / name)
    manifest: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "byteorder": sys.byteorder,
        "segments": [name],
        "next_segment": number + 1,
        "graphs": len(graphs),
        "next_graph_id": next_graph_id,
        "tombstones": {},
    }
    if extra:
        manifest.update(extra)
    write_manifest(root, manifest)
    for stale in sorted(root.glob("*.seg")) + sorted(root.glob("*.tmp")):
        if stale.name != name:
            stale.unlink()


# ----------------------------------------------------------------------
# LSM id sets
# ----------------------------------------------------------------------
class LsmIdStore:
    """One id set over LSM layers: id layers − tombstones ∪ memtable.

    Backs a feature's support set
    (:class:`~repro.core.feature.FeatureTree`) and an exception list
    (:class:`~repro.core.feature.ShrunkTree`) on a v3 index.  Layers are
    immutable posting lists (usually mmap-backed) tagged with the
    **epoch** — the global segment index they were flushed at — and
    :func:`live_ids` drops what tombstones killed.  The memtable holds
    unflushed ids and is always live (deletes pop it immediately).
    :meth:`graph_ids` merges these when called and keeps nothing:
    queries read the owning tree's bitmap instead.
    """

    __slots__ = ("_tomb", "_layers", "_mem")

    def __init__(self, tombstones: Dict[int, int]) -> None:
        self._tomb = tombstones
        self._layers: List[Tuple[int, PostingList]] = []
        self._mem: Set[int] = set()

    @property
    def pending(self) -> Set[int]:
        """The unflushed memtable."""
        return self._mem

    def flush_to_layer(self, epoch: int, ids: PostingList) -> None:
        """Swap the memtable for ``ids``, flushed at ``epoch``; an empty
        column adds no layer."""
        if len(ids):
            self._layers.append((epoch, ids))
        self._mem = set()

    def reset_layers(self) -> None:
        """Drop every layer and the memtable (a compaction folded them)."""
        self._layers = []
        self._mem = set()

    def graph_ids(self) -> PostingList:
        """The live ids, merged now."""
        layers = self._layers
        if len(layers) == 1 and not self._mem and not self._tomb:
            # Single layer, nothing buffered, nothing deleted anywhere:
            # hand out the layer's own (possibly mmap-backed) column.
            return layers[0][1]
        live = set(self._mem)
        live.update(live_ids(layers, self._tomb))
        return PostingList.from_buffer(id_array(sorted(live)))

    def add_graph(self, gid: int) -> None:
        if gid < 0:
            raise ValueError(f"graph ids are non-negative, got {gid}")
        self._mem.add(gid)

    def remove_graph(self, gid: int) -> None:
        """Drop ``gid`` from the memtable; layer data dies by tombstone."""
        self._mem.discard(gid)

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
            live.update(
                live_ids(
                    enumerate(segment.graph_gids() for segment in self._segments),
                    self._tomb,
                )
            )
            live_list = sorted(live)
            self._live = live_list
        return live_list

    def graph_ids(self) -> List[int]:
        return list(self._live_ids())

    def universe_posting(self) -> PostingList:
        if self._universe is None:
            self._universe = PostingList.from_buffer(id_array(self._live_ids()))
        return self._universe

    def average_edge_count(self) -> float:
        ids = self._live_ids()
        if not ids:
            return 0.0
        return sum(self[gid].num_edges for gid in ids) / len(ids)


# ----------------------------------------------------------------------
# LSM orchestration
# ----------------------------------------------------------------------
def _lsm(tree: IndexedTree) -> LsmIdStore:
    """The LSM store of a tree that a segment store maintains."""
    store = tree.store
    assert isinstance(store, LsmIdStore)
    return store


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
        self._features: List[FeatureTree] = []
        self._shrunk: List[ShrunkTree] = []
        # Trees no segment holds a record of yet: features insert made.
        self._unwritten: Set[IndexedTree] = set()

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

    def open_trees(self) -> Tuple[List[FeatureTree], List[ShrunkTree]]:
        """Every indexed tree of the directory, features sorted by id.

        Each tree is built from the first entry naming it, which must
        define it, and its :class:`LsmIdStore` gets one layer per
        segment whose column for it holds ids.  Header-only: no column
        page is read.
        """
        trees: Dict[Tuple[str, str], IndexedTree] = {}
        for epoch, segment in enumerate(self._segments):
            for entry in segment.entries():
                if (entry.kind, entry.key) not in trees:
                    trees[entry.kind, entry.key] = segment.define_tree(
                        entry, LsmIdStore(self.tombstones)
                    )
            self._feed(epoch, segment, trees)
        features = [t for t in trees.values() if isinstance(t, FeatureTree)]
        features.sort(key=lambda f: f.feature_id)
        shrunk = [t for t in trees.values() if isinstance(t, ShrunkTree)]
        return features, shrunk

    def attach(
        self,
        db: SegmentGraphDatabase,
        features: List[FeatureTree],
        shrunk: Sequence[ShrunkTree] = (),
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
                1 for _ in live_ids([(layer, segment.graph_gids())], self.tombstones)
            )
            rows.append(
                {
                    "segment": segment.path.name,
                    "graphs": total,
                    "live": live,
                    "tombstoned": total - live,
                    "features": sum(
                        entry.kind == FEATURES for entry in segment.entries()
                    ),
                    "bytes": segment.nbytes(),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # write-path hooks (index calls these; engine holds the write lock)
    # ------------------------------------------------------------------
    def adopt_feature(self, feature: FeatureTree) -> None:
        """Back a freshly materialized feature with an (empty) LSM store;
        the next flush writes its record."""
        feature.store = LsmIdStore(self.tombstones)
        self._unwritten.add(feature)

    def note_write(self) -> None:
        """Count one insert or delete toward the next flush."""
        self._dirty_ops += 1

    def should_flush(self) -> bool:
        return self._dirty_ops >= self._memtable_limit

    def needs_compaction(self) -> bool:
        return self.delta_count >= self._compact_threshold

    def flush(self) -> bool:
        """Persist buffered state: write a delta segment, sync the manifest.

        The delta carries the overlay graphs and every tree with buffered
        ids or with no record in any segment yet, so a feature that an
        insert materialized survives reopen even when its graph was
        deleted before the flush (the σ(1)=1 completeness floor must not
        silently lose keys).  Pure-tombstone churn needs no new segment;
        the manifest rewrite alone persists it.  Returns True when a
        segment was written.
        """
        db = self._db
        if db is None:
            raise SerializationError("segment store is not attached yet")
        overlay = db.overlay_graphs()
        trees = [
            tree
            for tree in self._trees()
            if _lsm(tree).pending or tree in self._unwritten
        ]
        wrote = False
        if overlay or trees:
            epoch = len(self._segments)
            name = segment_name(self._manifest["next_segment"])
            self._manifest["next_segment"] += 1
            write_segment(
                self.root / name,
                overlay,
                [(tree, sorted(_lsm(tree).pending)) for tree in trees],
                defines=self._unwritten,
            )
            segment = Segment(self.root / name)
            self._segments.append(segment)
            self._manifest["segments"].append(name)
            self._feed(epoch, segment, {_ident(tree): tree for tree in trees})
            self._unwritten.clear()
            db.note_flushed()
            wrote = True
        self._sync_manifest()
        self._dirty_ops = 0
        return wrote

    def prepare_compaction(self) -> Optional[CompactionPlan]:
        """Merge everything into a temp segment file (read-lock safe).

        A full checkpoint: live graphs (overlay included) and the fully
        merged column of every tree (memtables included, tombstones
        folded out).  Touches no visible state — the caller
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
        write_segment(tmp, graphs, tree_payloads(self._trees()))
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
        name = segment_name(self._manifest["next_segment"])
        self._manifest["next_segment"] += 1
        final = self.root / name
        os.replace(plan.tmp_path, final)
        segment = Segment(final)
        old_segments = list(self._segments)
        old_names = list(self._manifest["segments"])
        self._segments[:] = [segment]
        self._manifest["segments"] = [name]
        self.tombstones.clear()
        trees = {_ident(tree): tree for tree in self._trees()}
        for tree in trees.values():
            _lsm(tree).reset_layers()
        self._feed(0, segment, trees)
        self._unwritten.clear()
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
    def _trees(self) -> Iterator[IndexedTree]:
        return chain(self._features, self._shrunk)

    @staticmethod
    def _feed(
        epoch: int, segment: Segment, trees: Mapping[Tuple[str, str], IndexedTree]
    ) -> None:
        """Give each tree of ``segment`` its column there as layer ``epoch``."""
        for entry in segment.entries():
            _lsm(trees[entry.kind, entry.key]).flush_to_layer(
                epoch, PostingList.from_buffer(entry.gids)
            )

    def _sync_manifest(self) -> None:
        db = self._db
        assert db is not None
        self._manifest["graphs"] = len(db)
        self._manifest["next_graph_id"] = db.next_id
        self._manifest["tombstones"] = {
            str(gid): epoch for gid, epoch in sorted(self.tombstones.items())
        }
        write_manifest(self.root, self._manifest)
