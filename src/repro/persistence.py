"""Index persistence: save/load a built TreePi index without re-mining.

The on-disk format is a single JSON document embedding the database, the
configuration, and every feature with its support set — everything
:class:`repro.core.TreePiIndex` holds.  Loading
reconstructs an index that answers queries identically to the original
(tested byte-for-byte on query results).

Three format versions are understood:

* **v1** (legacy, read-only) tags every label occurrence with its type
  and spells each center location as a nested list.  This build no
  longer writes it; the upgrade is a v1 load followed by a v2 save.
* **v2** (default, :data:`FORMAT_VERSION`) stores one
  :class:`~repro.storage.LabelInterner` table per document and
  references labels by dense id everywhere; each feature's ``"occ"``
  record holds its sorted support ids (``"gids"``).  Documents written
  by earlier builds also hold ``"offsets"`` and ``"centers"`` columns
  (center locations); the reader ignores them, as it ignores v1's
  locations beyond their graph ids.  The optional ``"shrunk"`` list
  holds the γ-shrunk trees' exception lists
  (:class:`~repro.core.feature.ShrunkTree`); a document without it loads
  with none, and its shrunk-tree queries verify their candidates.
* **v3** is not a JSON document at all: ``save_index(index, path,
  version=3)`` writes a *segment directory* (binary column files plus a
  small manifest — see :mod:`repro.storage.segments`), and
  ``load_index`` of a directory opens it lazily, memory-mapping the
  columns instead of deserializing them.

``save_index`` writes v2 by default (or v3 on request); ``load_index``
accepts all three.  An unknown or future version, and a document missing
a required key, raise :class:`~repro.exceptions.SerializationError` with
an actionable message instead of mis-decoding.

Labels are stored with explicit type tags so integers, strings, and the
tuple labels produced by the directed subdivision encoding all round-trip
losslessly (plain JSON would silently turn tuples into lists and integer
keys into strings).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.core.feature import FeatureTree, ShrunkTree
from repro.core.statistics import IndexStats
from repro.core.treepi import TreePiConfig, TreePiIndex
from repro.exceptions import SerializationError
from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.mining.subtree_miner import MiningStats
from repro.mining.support import SupportFunction
from repro.storage import IdStore, LabelInterner, PostingList
from repro.trees.canonical import tree_canonical_string

# The typed-label and interned-graph codecs are shared with the v3
# segment writer and live below both layers; re-exported here because
# this module is their historical home.
from repro.storage.codec import (
    decode_label,
    encode_label,
    graph_from_columns as _graph_from_columns,
    graph_to_columns as _graph_to_columns,
)
from repro.storage.segments import (
    DEFAULT_COMPACT_THRESHOLD,
    DEFAULT_MEMTABLE_LIMIT,
    LsmIdStore,
    MANIFEST_NAME,
    SegmentGraphDatabase,
    SegmentStore,
    feature_payloads,
    initialize_directory,
    shrunk_payloads,
)

FORMAT_NAME = "treepi-index"
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2, 3)
WRITABLE_VERSIONS = (2, 3)


@contextmanager
def _decode_errors(source: Optional[Union[str, Path]]) -> Iterator[None]:
    """Turn a missing or mistyped key while decoding into a SerializationError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        where = f" {source}" if source is not None else ""
        raise SerializationError(
            f"malformed index document{where}: missing or mistyped field "
            f"({type(exc).__name__}: {exc})"
        ) from exc


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def graph_to_json(graph: LabeledGraph) -> Dict[str, Any]:
    return {
        "vertices": [encode_label(l) for l in graph.vertex_labels()],
        "edges": [
            [u, v, encode_label(label)] for u, v, label in graph.edges()
        ],
    }


def graph_from_json(data: Dict[str, Any], graph_id: Optional[int] = None) -> LabeledGraph:
    try:
        graph = LabeledGraph(
            [decode_label(l) for l in data["vertices"]], graph_id=graph_id
        )
        for u, v, label in data["edges"]:
            graph.add_edge(u, v, decode_label(label))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed graph record: {exc}") from exc
    return graph


# ----------------------------------------------------------------------
# config / stats
# ----------------------------------------------------------------------
def config_to_json(config: TreePiConfig) -> Dict[str, Any]:
    # ``matcher_prefilters`` is deliberately absent: it is a runtime knob
    # that changes neither what gets built nor what gets answered.
    return {
        "alpha": config.support.alpha,
        "beta": config.support.beta,
        "eta": config.support.eta,
        "gamma": config.gamma,
        "delta": config.delta,
        "paths_only": config.paths_only,
        "seed": config.seed,
    }


def config_from_json(
    data: Dict[str, Any], source: Optional[Union[str, Path]] = None
) -> TreePiConfig:
    # Files written by older builds may carry retired keys: "feature_index"
    # (the choice of key structure), "enable_center_prune",
    # "direct_verification_max_edges", "center_prune_budget" (the choice
    # of verification path) and "augment_small_subtrees" (a switch on a
    # filter serving now always computes).  None of them affected
    # answers, so they are ignored.  "max_embeddings_per_graph" is
    # retired too, but a non-null value did affect answers: the index
    # was mined approximately and its supports may be short.
    cap = data.get("max_embeddings_per_graph")
    if cap is not None:
        where = f" {source}" if source is not None else ""
        raise SerializationError(
            f"index{where} was built with approximate mining "
            f"(max_embeddings_per_graph={cap!r}), so its support sets may "
            "be short; rebuild it from its database with this release"
        )
    return TreePiConfig(
        support=SupportFunction(data["alpha"], data["beta"], data["eta"]),
        gamma=data["gamma"],
        delta=data["delta"],
        paths_only=data.get("paths_only", False),
        seed=data["seed"],
    )


def _stats_to_json(stats: IndexStats) -> Dict[str, Any]:
    return {
        "num_features": stats.num_features,
        "features_by_size": {str(k): v for k, v in stats.features_by_size.items()},
        "total_center_locations": stats.total_center_locations,
        "build_seconds": stats.build_seconds,
        "shrink_removed": stats.shrink_removed,
        "mining": {
            "patterns_per_level": {
                str(k): v for k, v in stats.mining.patterns_per_level.items()
            },
            "candidates_per_level": {
                str(k): v for k, v in stats.mining.candidates_per_level.items()
            },
            "elapsed_seconds": stats.mining.elapsed_seconds,
        },
    }


def _stats_from_json(data: Dict[str, Any]) -> IndexStats:
    mining = MiningStats(
        patterns_per_level={
            int(k): v for k, v in data["mining"]["patterns_per_level"].items()
        },
        candidates_per_level={
            int(k): v for k, v in data["mining"]["candidates_per_level"].items()
        },
        elapsed_seconds=data["mining"]["elapsed_seconds"],
    )
    return IndexStats(
        num_features=data["num_features"],
        features_by_size={int(k): v for k, v in data["features_by_size"].items()},
        total_center_locations=data["total_center_locations"],
        build_seconds=data["build_seconds"],
        mining=mining,
        shrink_removed=data["shrink_removed"],
    )


# ----------------------------------------------------------------------
# features (v1, read-only: type-tagged labels, nested center lists)
# ----------------------------------------------------------------------
def _feature_from_json_v1(data: Dict[str, Any]) -> FeatureTree:
    # A graph is in the support set when it has a center location; the
    # locations themselves are not kept.
    return FeatureTree(
        feature_id=data["id"],
        tree=graph_from_json(data["tree"]),
        key=data["key"],
        center=tuple(data["center"]),
        support=(
            int(gid) for gid, centers in data["locations"].items() if centers
        ),
    )


# ----------------------------------------------------------------------
# v2: interned label columns + support-id columns
# ----------------------------------------------------------------------
def _feature_to_json_v2(
    feature: FeatureTree, interner: LabelInterner
) -> Dict[str, Any]:
    return {
        "id": feature.feature_id,
        "tree": _graph_to_columns(feature.tree, interner),
        "key": feature.key,
        "center": list(feature.center),
        "occ": {"gids": list(feature.support_posting())},
    }


def _feature_from_json_v2(data: Dict[str, Any], labels: List[Any]) -> FeatureTree:
    try:
        support = PostingList.from_sorted(data["occ"]["gids"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed support column for feature {data.get('id')!r}: {exc}"
        ) from exc
    return FeatureTree(
        feature_id=data["id"],
        tree=_graph_from_columns(data["tree"], labels),
        key=data["key"],
        center=tuple(data["center"]),
        store=IdStore(support),
    )


def _shrunk_to_json_v2(shrunk: ShrunkTree, interner: LabelInterner) -> Dict[str, Any]:
    # The key is the tree's canonical string; the reader recomputes it.
    return {
        "tree": _graph_to_columns(shrunk.tree, interner),
        "cover": list(shrunk.cover),
        "gids": list(shrunk.exceptions()),
    }


def _shrunk_from_json_v2(data: Dict[str, Any], labels: List[Any]) -> ShrunkTree:
    tree = _graph_from_columns(data["tree"], labels)
    return ShrunkTree(
        key=tree_canonical_string(tree),
        tree=tree,
        cover=tuple(data["cover"]),
        store=IdStore(PostingList.from_sorted(data["gids"])),
    )


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------
def index_to_json(
    index: TreePiIndex, version: int = FORMAT_VERSION
) -> Dict[str, Any]:
    """Serialize an index as a v2 JSON document."""
    if version == 1:
        raise SerializationError(
            "index format v1 is read-only; write version 2 "
            "(a v1 document upgrades by loading it and saving it as v2)"
        )
    if version not in WRITABLE_VERSIONS:
        raise SerializationError(
            f"cannot write index format version {version!r}; "
            f"this build writes {WRITABLE_VERSIONS}"
        )
    if version == 3:
        raise SerializationError(
            "index format v3 is a binary segment directory and has no "
            "JSON document form; use save_index(index, path, version=3)"
        )
    db = index.database
    # The interner is filled in canonical order (ascending graph id,
    # vertex order, edge order, then features in id order, then shrunk
    # trees in key order), so the same index serializes to byte-identical
    # JSON on every run.
    interner = LabelInterner()
    database = {
        str(gid): _graph_to_columns(db[gid], interner)
        for gid in sorted(db.graph_ids())
    }
    features = [_feature_to_json_v2(f, interner) for f in index.features]
    shrunk = [_shrunk_to_json_v2(t, interner) for t in index.shrunk]
    doc = {
        "format": FORMAT_NAME,
        "version": 2,
        "config": config_to_json(index.config),
        "stats": _stats_to_json(index.stats),
        "labels": [encode_label(label) for label in interner.labels()],
        "database": database,
        "features": features,
    }
    if shrunk:
        doc["shrunk"] = shrunk
    return doc


def index_from_json(
    data: Dict[str, Any], source: Optional[Union[str, Path]] = None
) -> TreePiIndex:
    """Reconstruct an index from any supported JSON format version.

    Version negotiation is explicit: documents declaring a version this
    build does not know (e.g. one written by a newer release) are
    rejected with a :class:`SerializationError` naming ``source`` (the
    file the document came from, when known) and the full
    :data:`READABLE_VERSIONS` tuple, rather than being half-decoded
    into a wrong index.  A document missing a required key, or holding
    one of the wrong type, raises :class:`SerializationError` too.
    """
    if data.get("format") != FORMAT_NAME:
        raise SerializationError(f"not a {FORMAT_NAME} document")
    version = data.get("version")
    if version not in READABLE_VERSIONS:
        where = f" in {source}" if source is not None else ""
        raise SerializationError(
            f"index format version {version!r}{where} is not supported by "
            f"this build (supported versions: {READABLE_VERSIONS}). "
            "The document was probably written by a newer release — "
            "upgrade this installation, or re-save the index with "
            f"index_to_json(index, version={FORMAT_VERSION}) from the "
            "release that produced it."
        )
    if version == 3:
        where = f" ({source})" if source is not None else ""
        raise SerializationError(
            "index format version 3 is a segment directory, not a JSON "
            f"document{where}; pass the directory path to load_index()"
        )
    with _decode_errors(source):
        config = config_from_json(data["config"], source)
        stats = _stats_from_json(data["stats"])
        db = GraphDatabase()
        records = sorted(data["database"].items(), key=lambda kv: int(kv[0]))
        shrunk: List[ShrunkTree] = []
        if version == 1:
            for gid_str, record in records:
                db.add(graph_from_json(record), graph_id=int(gid_str))
            features = [_feature_from_json_v1(f) for f in data["features"]]
        else:
            labels = [decode_label(record) for record in data["labels"]]
            for gid_str, record in records:
                db.add(_graph_from_columns(record, labels), graph_id=int(gid_str))
            features = [_feature_from_json_v2(f, labels) for f in data["features"]]
            shrunk = [_shrunk_from_json_v2(t, labels) for t in data.get("shrunk", ())]
    return TreePiIndex(db, config, features, stats, shrunk)


def save_index(
    index: TreePiIndex, path: Union[str, Path], version: int = FORMAT_VERSION
) -> None:
    """Write the index (database included) to ``path``.

    Version 2 writes a single JSON document; version 3 writes a
    *segment directory* (see :func:`save_segment_index`).  Version 1 is
    read-only and raises :class:`SerializationError`.
    """
    if version == 3:
        save_segment_index(index, path)
        return
    with open(path, "w") as f:
        json.dump(index_to_json(index, version=version), f)


def load_index(path: Union[str, Path]) -> TreePiIndex:
    """Reload an index saved by :func:`save_index`; no re-mining happens.

    A directory is opened as a v3 segment directory (lazily — columns
    stay memory-mapped and unread until queries touch them); a file is
    parsed as a v1/v2 JSON document.
    """
    path = Path(path)
    if path.is_dir():
        return load_segment_index(path)
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    return index_from_json(data, source=path)


# ----------------------------------------------------------------------
# v3: memory-mapped segment directories
# ----------------------------------------------------------------------
def save_segment_index(index: TreePiIndex, root: Union[str, Path]) -> None:
    """Write ``index`` as a fresh v3 directory with one base segment.

    The base segment holds every live graph and the fully merged
    support column of every feature, so saving an LSM-maintained index
    is also an offline compaction.
    """
    db = index.database
    ids = db.graph_ids()
    graphs = [db[gid] for gid in ids]
    next_graph_id = (max(ids) + 1) if ids else 0
    initialize_directory(
        Path(root),
        graphs,
        feature_payloads(index.features),
        next_graph_id,
        extra={
            "config": config_to_json(index.config),
            "stats": _stats_to_json(index.stats),
        },
        shrunk=shrunk_payloads(index.shrunk),
    )


def load_segment_index(
    root: Union[str, Path],
    memtable_limit: int = DEFAULT_MEMTABLE_LIMIT,
    compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
) -> TreePiIndex:
    """Open a v3 segment directory lazily.

    O(manifest + segment headers): graphs decode on demand and the
    posting columns stay unmapped-in until a query touches them
    (``SegmentStore.columns_touched()`` stays 0 across this call — the
    cold-open benchmark gate pins that).  The returned index is fully
    maintainable: ``insert``/``delete`` buffer into memtables, flush to
    delta segments, and compact — never a full rebuild.
    """
    store = SegmentStore.open(
        root,
        memtable_limit=memtable_limit,
        compact_threshold=compact_threshold,
    )
    ok = False
    try:
        manifest = store.manifest
        manifest_path = Path(root) / MANIFEST_NAME
        with _decode_errors(manifest_path):
            config = config_from_json(manifest["config"], manifest_path)
            stats = _stats_from_json(manifest["stats"])
            db = SegmentGraphDatabase(
                store.segments,
                store.tombstones,
                manifest.get("next_graph_id", 0),
                manifest["graphs"],
            )
        features: List[FeatureTree] = []
        by_key: Dict[str, FeatureTree] = {}
        for layer, segment in enumerate(store.segments):
            labels = segment.labels()
            for entry in segment.feature_entries():
                feature = by_key.get(entry.key)
                if feature is None:
                    feature = FeatureTree(
                        feature_id=entry.feature_id,
                        tree=entry.decode_tree(labels),
                        key=entry.key,
                        center=entry.center,
                        store=LsmIdStore(store.tombstones),
                    )
                    by_key[entry.key] = feature
                    features.append(feature)
                if entry.graph_count:
                    support = feature.store
                    assert isinstance(support, LsmIdStore)
                    support.flush_to_layer(layer, entry.open_store())
        features.sort(key=lambda f: f.feature_id)
        shrunk: Dict[str, ShrunkTree] = {}
        for layer, segment in enumerate(store.segments):
            labels = segment.labels()
            for item in segment.shrunk_entries():
                tree = shrunk.get(item.key)
                if tree is None:
                    if item.tree_record is None:
                        raise SerializationError(
                            f"exception list {item.key!r} in {segment.path} "
                            "extends no list an earlier segment defines"
                        )
                    tree = shrunk[item.key] = ShrunkTree(
                        key=item.key,
                        tree=_graph_from_columns(item.tree_record, labels),
                        cover=item.cover,
                        store=LsmIdStore(store.tombstones),
                    )
                lists = tree.store
                assert isinstance(lists, LsmIdStore)
                if len(item.gids):
                    lists.flush_to_layer(layer, PostingList.from_buffer(item.gids))
        index = TreePiIndex(db, config, features, stats, list(shrunk.values()))
        index.attach_segment_store(store)
        ok = True
        return index
    finally:
        # Ownership transfers to the returned index; on any earlier
        # failure the maps must not leak with the exception.
        if not ok:
            store.close()
