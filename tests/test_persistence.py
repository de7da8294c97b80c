"""Unit tests for index persistence (save/load without re-mining)."""

import json
import re
from pathlib import Path

import pytest

from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import extract_query_workload
from repro.exceptions import SerializationError
from repro.graphs import LabeledGraph
from repro.mining import SupportFunction
from repro.persistence import (
    config_from_json,
    config_to_json,
    decode_label,
    encode_label,
    graph_from_json,
    graph_to_json,
    index_from_json,
    index_to_json,
    load_index,
    save_index,
)


class TestLabels:
    @pytest.mark.parametrize(
        "label", [0, -7, 3.5, "C", "", ("x", "src"), (1, ("a", 2)), None]
    )
    def test_roundtrip(self, label):
        assert decode_label(encode_label(label)) == label

    def test_list_becomes_tuple(self):
        assert decode_label(encode_label(["a", 1])) == ("a", 1)

    def test_bool_rejected(self):
        with pytest.raises(SerializationError):
            encode_label(True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            decode_label({"z": 1})

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            decode_label("not-a-dict")


class TestGraphJson:
    def test_roundtrip(self, small_tree):
        restored = graph_from_json(graph_to_json(small_tree))
        assert restored.structure_equal(small_tree)

    def test_tuple_edge_labels(self):
        g = LabeledGraph(["a", "b"], [(0, 1, ("bond", 2))])
        restored = graph_from_json(graph_to_json(g))
        assert restored.edge_label(0, 1) == ("bond", 2)

    def test_graph_id_assignment(self, triangle):
        restored = graph_from_json(graph_to_json(triangle), graph_id=4)
        assert restored.graph_id == 4

    def test_malformed_graph(self):
        with pytest.raises(SerializationError):
            graph_from_json({"vertices": [{"s": "a"}]})  # missing edges


class TestIndexRoundtrip:
    @pytest.fixture(scope="class")
    def index(self):
        from repro.datasets import generate_aids_like

        db = generate_aids_like(12, avg_atoms=12, seed=61)
        return TreePiIndex.build(
            db, TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=3)
        )

    def test_json_roundtrip_preserves_features(self, index):
        restored = index_from_json(index_to_json(index))
        assert restored.feature_count() == index.feature_count()
        for original in index.features:
            twin = restored.feature_by_key(original.key)
            assert twin is not None
            assert twin.center == original.center
            assert list(twin.support_posting()) == list(original.support_posting())

    def test_restored_index_answers_identically(self, index):
        restored = index_from_json(index_to_json(index))
        for query in extract_query_workload(index.database, 4, 8, seed=2):
            assert restored.query(query).matches == index.query(query).matches

    def test_restored_index_supports_maintenance(self, index):
        restored = index_from_json(index_to_json(index))
        donor = index.database[index.database.graph_ids()[0]].copy()
        gid = restored.insert(donor)
        assert gid in restored.database
        restored.delete(gid)

    def test_file_roundtrip(self, index, tmp_path):
        path = tmp_path / "index.json"
        save_index(index, path)
        restored = load_index(path)
        assert restored.feature_count() == index.feature_count()
        assert restored.stats.num_features == index.stats.num_features

    def test_stats_roundtrip(self, index):
        restored = index_from_json(index_to_json(index))
        assert restored.stats.features_by_size == index.stats.features_by_size
        assert (
            restored.stats.mining.patterns_per_level
            == index.stats.mining.patterns_per_level
        )

    def test_config_roundtrip(self, index):
        restored = index_from_json(index_to_json(index))
        assert restored.config == index.config


class TestFormatGuards:
    def test_wrong_format_rejected(self):
        with pytest.raises(SerializationError):
            index_from_json({"format": "other", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(SerializationError):
            index_from_json({"format": "treepi-index", "version": 99})

    def test_future_version_message_is_actionable(self):
        with pytest.raises(SerializationError) as excinfo:
            index_from_json({"format": "treepi-index", "version": 99})
        message = str(excinfo.value)
        assert "version 99" in message
        assert "supported versions: (1, 2, 3)" in message
        assert "upgrade" in message

    def test_future_version_message_names_the_file(self, tmp_path):
        """Loaded from disk, the error points at the offending path."""
        import json

        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": "treepi-index", "version": 99}))
        with pytest.raises(SerializationError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "supported versions: (1, 2, 3)" in message

    def test_version_3_json_document_redirects_to_directory(self):
        """A v3 'document' is a category error with a pointed message."""
        with pytest.raises(SerializationError) as excinfo:
            index_from_json({"format": "treepi-index", "version": 3})
        assert "segment directory" in str(excinfo.value)
        assert "load_index" in str(excinfo.value)

    def test_missing_version_rejected(self):
        with pytest.raises(SerializationError):
            index_from_json({"format": "treepi-index"})

    def test_unknown_write_version_rejected(self, small_index):
        with pytest.raises(SerializationError):
            index_to_json(small_index, version=7)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SerializationError):
            load_index(path)


#: A v1 document written by the last build that still wrote v1, from the
#: ``small_index`` fixture below (``save_index(small_index, path,
#: version=1)``).  Frozen: this build only reads v1.
V1_FIXTURE = Path(__file__).parent / "data" / "small_index_v1.json"


@pytest.fixture(scope="module")
def v1_doc():
    return json.loads(V1_FIXTURE.read_text())


@pytest.fixture(scope="module")
def small_index():
    from repro.datasets import generate_aids_like

    db = generate_aids_like(10, avg_atoms=10, seed=17)
    return TreePiIndex.build(
        db, TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=3)
    )


class TestVersionNegotiation:
    """v1 documents load (read-only); v2 is the default dialect."""

    def test_default_save_is_v2(self, small_index):
        assert index_to_json(small_index)["version"] == 2

    def test_v1_fixture_loadable(self, small_index, v1_doc):
        assert v1_doc["version"] == 1
        assert "labels" not in v1_doc
        restored = load_index(V1_FIXTURE)
        assert restored.feature_count() == small_index.feature_count()

    def test_v1_write_rejected(self, small_index, tmp_path):
        with pytest.raises(SerializationError, match="version 2"):
            index_to_json(small_index, version=1)
        with pytest.raises(SerializationError, match="version 2"):
            save_index(small_index, tmp_path / "v1.json", version=1)

    def test_v1_load_answers_identically(self, small_index, v1_doc):
        restored = index_from_json(v1_doc)
        for query in extract_query_workload(small_index.database, 4, 6, seed=9):
            assert (
                restored.query(query).matches == small_index.query(query).matches
            )

    def test_v1_load_then_v2_save_roundtrip(self, small_index, v1_doc):
        """The upgrade path: load a legacy document, re-save as v2."""
        legacy = index_from_json(v1_doc)
        upgraded = index_from_json(index_to_json(legacy, version=2))
        assert upgraded.feature_count() == small_index.feature_count()
        for original in small_index.features:
            twin = upgraded.feature_by_key(original.key)
            assert twin is not None
            assert twin.center == original.center
            assert list(twin.support_posting()) == list(original.support_posting())
        for query in extract_query_workload(small_index.database, 4, 6, seed=4):
            assert (
                upgraded.query(query).matches == small_index.query(query).matches
            )

    def test_v2_document_is_deterministic(self, small_index):
        a = json.dumps(index_to_json(small_index), sort_keys=True)
        b = json.dumps(index_to_json(small_index), sort_keys=True)
        assert a == b

    def test_v2_smaller_than_v1(self, small_index, v1_doc):
        v1 = len(json.dumps(v1_doc))
        v2 = len(json.dumps(index_to_json(small_index, version=2)))
        assert v2 < v1

    def test_v2_file_roundtrip(self, small_index, tmp_path):
        path = tmp_path / "index_v2.json"
        save_index(small_index, path)
        assert json.loads(path.read_text())["version"] == 2
        restored = load_index(path)
        assert restored.feature_count() == small_index.feature_count()

    def test_malformed_v2_occurrence_columns(self, small_index):
        doc = index_to_json(small_index)
        doc["features"][0]["occ"]["gids"] = [3, 1]  # not increasing
        with pytest.raises(SerializationError, match="support column"):
            index_from_json(doc)


class TestMalformedDocuments:
    """A missing required key is a SerializationError, never a KeyError."""

    def test_v2_document_without_config(self):
        with pytest.raises(SerializationError, match="config"):
            index_from_json({"format": "treepi-index", "version": 2})

    def test_mistyped_database(self, small_index):
        doc = index_to_json(small_index)
        doc["database"] = []
        with pytest.raises(SerializationError, match="mistyped"):
            index_from_json(doc)

    def test_config_without_beta(self, small_index, tmp_path):
        doc = index_to_json(small_index)
        del doc["config"]["beta"]
        with pytest.raises(SerializationError, match="beta"):
            index_from_json(doc)
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError) as excinfo:
            load_index(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("key", ["config", "stats"])
    def test_v3_manifest_without_key(self, small_index, tmp_path, monkeypatch, key):
        from repro.storage.segments import SegmentStore

        root = tmp_path / "seg"
        save_index(small_index, root, version=3)
        manifest = root / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc[key]
        manifest.write_text(json.dumps(doc))
        closed = []
        close = SegmentStore.close

        def recording_close(store):
            closed.append(store)
            close(store)

        monkeypatch.setattr(SegmentStore, "close", recording_close)
        with pytest.raises(SerializationError, match=key) as excinfo:
            load_index(root)
        assert str(manifest) in str(excinfo.value)
        assert len(closed) == 1


class TestMalformedSegments:
    """A bad v3 segment file is a SerializationError naming it, and the
    map opened to read its header is closed again."""

    @staticmethod
    def _segment(small_index, tmp_path):
        root = tmp_path / "seg"
        save_index(small_index, root, version=3)
        manifest = json.loads((root / "manifest.json").read_text())
        return root, root / manifest["segments"][0]

    @staticmethod
    def _load_recording_maps(root, monkeypatch):
        import mmap

        maps = []
        real = mmap.mmap

        def recording_mmap(*args, **kwargs):
            maps.append(real(*args, **kwargs))
            return maps[-1]

        monkeypatch.setattr(mmap, "mmap", recording_mmap)
        with pytest.raises(SerializationError) as excinfo:
            load_index(root)
        return maps, str(excinfo.value)

    def test_bad_magic(self, small_index, tmp_path, monkeypatch):
        root, segment = self._segment(small_index, tmp_path)
        data = bytearray(segment.read_bytes())
        data[:4] = b"XXXX"
        segment.write_bytes(bytes(data))
        maps, message = self._load_recording_maps(root, monkeypatch)
        assert str(segment) in message
        assert len(maps) == 1 and maps[0].closed

    def test_header_without_graphs(self, small_index, tmp_path, monkeypatch):
        import struct

        from repro.storage.segments import MAGIC

        root, segment = self._segment(small_index, tmp_path)
        data = segment.read_bytes()
        start = len(MAGIC) + 8
        (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
        header = json.loads(data[start : start + header_len])
        del header["graphs"]
        body = json.dumps(header).encode("utf-8")
        segment.write_bytes(
            MAGIC + struct.pack("<Q", len(body)) + body + data[start + header_len :]
        )
        maps, message = self._load_recording_maps(root, monkeypatch)
        assert str(segment) in message and "graphs" in message
        assert len(maps) == 1 and maps[0].closed

    def test_exception_list_without_tree(self, small_index, tmp_path, monkeypatch):
        """Only a delta may omit a list's tree: it extends the base's list."""
        import struct

        from repro.storage.segments import MAGIC

        root, segment = self._segment(small_index, tmp_path)
        data = segment.read_bytes()
        start = len(MAGIC) + 8
        (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
        header = json.loads(data[start : start + header_len])
        del header["shrunk"][0]["tree"]
        body = json.dumps(header).encode("utf-8")
        segment.write_bytes(
            MAGIC + struct.pack("<Q", len(body)) + body + data[start + header_len :]
        )
        maps, message = self._load_recording_maps(root, monkeypatch)
        assert str(segment) in message and "exception list" in message
        assert len(maps) == 1 and maps[0].closed

    @staticmethod
    def _rewrite_manifest(root, edit):
        manifest = root / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        return manifest

    @pytest.mark.parametrize(
        "edit, key",
        [
            pytest.param(lambda doc: doc.pop("segments"), "segments", id="without-segments"),
            pytest.param(lambda doc: doc.update(segments=5), "segments", id="segments-not-a-list"),
            pytest.param(lambda doc: doc.pop("next_segment"), "next_segment", id="without-next-segment"),
            pytest.param(lambda doc: doc.update(tombstones={"x": 1}), "tombstones", id="mistyped-tombstones"),
        ],
    )
    def test_manifest_shape(self, small_index, tmp_path, monkeypatch, edit, key):
        root, _ = self._segment(small_index, tmp_path)
        manifest = self._rewrite_manifest(root, edit)
        maps, message = self._load_recording_maps(root, monkeypatch)
        assert str(manifest) in message and key in message
        assert maps == []

    def test_manifest_with_a_non_utf8_byte(self, small_index, tmp_path, monkeypatch):
        root, _ = self._segment(small_index, tmp_path)
        manifest = root / "manifest.json"
        data = manifest.read_bytes()
        at = data.index(b"treepi-index")
        manifest.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        maps, message = self._load_recording_maps(root, monkeypatch)
        assert str(manifest) in message
        assert maps == []

    def test_manifest_naming_a_missing_segment(
        self, small_index, tmp_path, monkeypatch
    ):
        root, _ = self._segment(small_index, tmp_path)
        self._rewrite_manifest(
            root, lambda doc: doc["segments"].append("seg-000009.seg")
        )
        maps, message = self._load_recording_maps(root, monkeypatch)
        assert str(root / "seg-000009.seg") in message
        assert len(maps) == 1 and maps[0].closed


class TestRetiredFeatureIndexKey:
    """Files from builds that had a ``feature_index`` setting still load."""

    def test_config_from_json_ignores_the_key(self, small_index):
        doc = config_to_json(small_index.config)
        assert "feature_index" not in doc
        for value in ("trie", "bptree", "hash"):
            legacy = dict(doc, feature_index=value)
            assert config_from_json(legacy) == small_index.config

    @pytest.mark.parametrize("value", ["trie", "bptree", "hash"])
    @pytest.mark.parametrize("version", [2, 3])
    def test_legacy_key_loads_and_resaves_without_it(
        self, small_index, tmp_path, version, value
    ):
        path = tmp_path / ("index.json" if version == 2 else "seg")
        save_index(small_index, path, version=version)
        config_file = path if version == 2 else path / "manifest.json"
        doc = json.loads(config_file.read_text())
        doc["config"]["feature_index"] = value
        config_file.write_text(json.dumps(doc))

        restored = load_index(path)
        for query in extract_query_workload(small_index.database, 4, 6, seed=5):
            assert (
                restored.query(query).matches == small_index.query(query).matches
            )
        resaved = tmp_path / "resaved"
        save_index(restored, resaved, version=version)
        if version == 2:
            config = json.loads(resaved.read_text())["config"]
        else:
            config = json.loads((resaved / "manifest.json").read_text())["config"]
            restored.segment_store.close()
        assert "feature_index" not in config


#: The retired verification-path knobs, at values that differ from their
#: old defaults (prune off, always reconstruct, zero prune checks).
RETIRED_KEYS = {
    "enable_center_prune": False,
    "direct_verification_max_edges": 0,
    "center_prune_budget": 0,
    "augment_small_subtrees": False,
}


def _answers_like(restored, original, seed=5):
    for query in extract_query_workload(original.database, 4, 6, seed=seed):
        assert restored.query(query).matches == original.query(query).matches


class TestRetiredConfigKeys:
    """Files from builds that chose a verification path still load.

    Older builds wrote ``enable_center_prune``, ``direct_verification_
    max_edges``, ``center_prune_budget`` and ``augment_small_subtrees``
    into every config; none of them affected answers, so readers ignore
    them and writers omit them.
    """

    def test_writer_omits_and_reader_ignores_them(self, small_index):
        doc = config_to_json(small_index.config)
        assert not set(RETIRED_KEYS) & set(doc)
        assert config_from_json(dict(doc, **RETIRED_KEYS)) == small_index.config

    def test_v1_document(self, small_index, v1_doc, tmp_path):
        doc = json.loads(json.dumps(v1_doc))
        doc["config"].update(RETIRED_KEYS)
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        _answers_like(load_index(path), small_index)

    @pytest.mark.parametrize("version", [2, 3])
    def test_v2_document_and_v3_manifest(self, small_index, tmp_path, version):
        path = tmp_path / ("index.json" if version == 2 else "seg")
        save_index(small_index, path, version=version)
        config_file = path if version == 2 else path / "manifest.json"
        doc = json.loads(config_file.read_text())
        doc["config"].update(RETIRED_KEYS)
        config_file.write_text(json.dumps(doc))

        restored = load_index(path)
        _answers_like(restored, small_index)
        resaved = tmp_path / "resaved"
        save_index(restored, resaved, version=version)
        if version == 3:
            restored.segment_store.close()
            resaved = resaved / "manifest.json"
        assert not set(RETIRED_KEYS) & set(json.loads(resaved.read_text())["config"])

    def test_sharded_tier_manifest(self, small_index, tmp_path):
        """The retired sharded tier saved a ``shards.json`` beside one
        ``shard-NNN/`` v3 directory per shard.  The root is not an index;
        each shard directory is a standalone v3 index."""
        save_index(small_index, tmp_path / "shard-000", version=3)
        doc = {
            "format": "treepi-shards",
            "version": 1,
            "num_shards": 1,
            "config": dict(config_to_json(small_index.config), **RETIRED_KEYS),
            "shards": {"0": "shard-000"},
        }
        (tmp_path / "shards.json").write_text(json.dumps(doc))

        with pytest.raises(SerializationError, match=re.escape(str(tmp_path))):
            load_index(tmp_path)
        shard = load_index(tmp_path / "shard-000")
        _answers_like(shard, small_index)
        shard.segment_store.close()


#: A v2 document written by the last build without exception lists:
#: ``save_index(TreePiIndex.build(generate_aids_like(12, avg_atoms=10,
#: seed=29), <its config>), path)``.  Frozen.
V2_NO_LISTS_FIXTURE = (
    Path(__file__).parent / "data" / "small_index_v2_no_exceptions.json"
)


class TestLegacyExceptionTable:
    """Indexes saved without exception lists load with none.

    Their shrunk-tree queries verify their candidates, as before, and
    answer like the scan.  A fresh build of the same database writes
    the same features, postings and centers, plus the lists.
    """

    @pytest.fixture(scope="class")
    def legacy(self):
        from repro.baselines import SequentialScan

        restored = load_index(V2_NO_LISTS_FIXTURE)
        rebuilt = TreePiIndex.build(restored.database, restored.config)
        queries = [t.tree for t in rebuilt.shrunk] + list(
            extract_query_workload(restored.database, 4, 6, seed=3)
        )
        scan = SequentialScan(restored.database)
        return restored, rebuilt, queries, [scan.support_set(q) for q in queries]

    @staticmethod
    def _assert_answers(index, queries, truth):
        for query, exact in zip(queries, truth):
            assert index.query(query).matches == exact

    def test_v2_document_loads_with_no_lists(self, legacy):
        restored, rebuilt, queries, truth = legacy
        assert restored.shrunk == [] and len(rebuilt.shrunk) > 0
        for shrunk in rebuilt.shrunk:
            result = restored.query(shrunk.tree)
            assert not result.direct_hit
        self._assert_answers(restored, queries, truth)

    def test_v3_directory_without_lists(self, legacy, tmp_path):
        restored, _, queries, truth = legacy
        root = tmp_path / "seg"
        save_index(restored, root, version=3)
        (segment,) = root.glob("*.seg")
        assert b'"shrunk"' not in segment.read_bytes()
        reopened = load_index(root)
        try:
            assert reopened.shrunk == []
            self._assert_answers(reopened, queries, truth)
        finally:
            reopened.segment_store.close()

    def test_fresh_build_adds_only_the_lists(self):
        from repro.datasets import generate_aids_like

        legacy = json.loads(V2_NO_LISTS_FIXTURE.read_text())
        db = generate_aids_like(12, avg_atoms=10, seed=29)
        fresh = index_to_json(
            TreePiIndex.build(db, config_from_json(legacy["config"]))
        )
        assert fresh.pop("shrunk")
        # The fixture also predates the retired embedding cap's key.
        assert legacy["config"].pop("max_embeddings_per_graph") is None
        # The fixture predates support-id-only features: its center
        # columns are the one other difference, and loaders ignore them.
        for feature in legacy["features"]:
            assert set(feature["occ"]) == {"gids", "offsets", "centers"}
            feature["occ"] = {"gids": feature["occ"]["gids"]}
        for doc in (legacy, fresh):
            doc["stats"]["build_seconds"] = 0.0
            doc["stats"]["mining"]["elapsed_seconds"] = 0.0
        assert fresh == legacy


#: A v3 directory written by the last build that stored center
#: locations: the ``V2_NO_LISTS_FIXTURE`` database rebuilt with its
#: config and saved as v3, then reopened for two inserts (one adds a
#: single-edge feature), one delete and a flush, so it holds a base and a
#: delta segment, a tombstone, and per-feature ``offsets``/``centers``
#: columns in both segments.  Frozen.
V3_CENTERS_FIXTURE = Path(__file__).parent / "data" / "small_index_v3_with_centers"


class TestLegacyCenterColumns:
    """Files written with center locations load; their centers are ignored.

    v1 documents, v2 documents and v3 directories from builds that stored
    centers answer like the scan through both ``query`` and
    ``query_paper``, which finds centers by search.  Re-saving, and a
    compaction, write support ids only.
    """

    @staticmethod
    def _assert_answers_like_scan(index):
        from repro.baselines import SequentialScan

        db = index.database
        scan = SequentialScan(db)
        queries = [t.tree for t in index.shrunk[:6]]
        for size in (2, 3, 5):
            queries.extend(extract_query_workload(db, size, 4, seed=size))
        for query in queries:
            truth = scan.support_set(query)
            assert index.query(query).matches == truth
            assert index.query_paper(query).matches == truth

    def test_v3_directory_with_center_columns(self, tmp_path):
        import shutil

        root = tmp_path / "legacy"
        shutil.copytree(V3_CENTERS_FIXTURE, root)
        assert all(b'"centers"' in seg.read_bytes() for seg in root.glob("*.seg"))
        index = load_index(root)
        try:
            store = index.segment_store
            assert store.segment_count == 2 and store.tombstones
            assert store.columns_touched() == 0
            assert index.shrunk
            self._assert_answers_like_scan(index)
            # Maintenance over the old segments: a new delta, then a
            # compaction that rewrites the base without center columns.
            index.insert(index.database[0].copy())
            index.delete(1)
            assert index.flush_segments()
            self._assert_answers_like_scan(index)
            index.commit_compaction(index.prepare_compaction())
            (segment,) = root.glob("*.seg")
            assert b'"offsets"' not in segment.read_bytes()
        finally:
            index.segment_store.close()
        reopened = load_index(root)
        try:
            self._assert_answers_like_scan(reopened)
        finally:
            reopened.segment_store.close()

    def test_v1_document(self, v1_doc):
        self._assert_answers_like_scan(index_from_json(v1_doc))

    def test_v2_document_with_center_columns(self):
        doc = json.loads(V2_NO_LISTS_FIXTURE.read_text())
        assert "centers" in doc["features"][0]["occ"]
        index = index_from_json(doc)
        self._assert_answers_like_scan(index)
        resaved = index_to_json(index)
        assert all(set(f["occ"]) == {"gids"} for f in resaved["features"])
        for old, new in zip(doc["features"], resaved["features"]):
            assert new["occ"]["gids"] == old["occ"]["gids"]


class TestRetiredEmbeddingCap:
    """``max_embeddings_per_graph`` is gone; null-cap files still load.

    Builds before its removal wrote the key into every config, ``null``
    unless mining was capped.  Writers omit it.  Readers accept a config
    without it or with ``null``, and reject a non-null cap, whose index
    was mined approximately and may have short support sets, with a
    :class:`SerializationError` naming the file.
    """

    FIXTURES = [
        V1_FIXTURE,
        V2_NO_LISTS_FIXTURE,
        V3_CENTERS_FIXTURE / "manifest.json",
    ]

    def test_writer_omits_the_key(self, small_index):
        assert "max_embeddings_per_graph" not in config_to_json(small_index.config)

    def test_reader_accepts_missing_and_null(self, small_index):
        doc = config_to_json(small_index.config)
        assert config_from_json(doc) == small_index.config
        legacy = dict(doc, max_embeddings_per_graph=None)
        assert config_from_json(legacy) == small_index.config

    @pytest.mark.parametrize("fixture", FIXTURES, ids=["v1", "v2", "v3"])
    def test_frozen_fixtures_carry_null(self, fixture):
        config = json.loads(fixture.read_text())["config"]
        assert config["max_embeddings_per_graph"] is None

    def test_config_field_is_gone(self):
        with pytest.raises(TypeError):
            TreePiConfig(SupportFunction(2, 2.0, 4), max_embeddings_per_graph=2)

    @pytest.mark.parametrize("fixture", [V1_FIXTURE, V2_NO_LISTS_FIXTURE], ids=["v1", "v2"])
    def test_capped_json_document_is_rejected(self, tmp_path, fixture):
        doc = json.loads(fixture.read_text())
        doc["config"]["max_embeddings_per_graph"] = 2
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError, match=re.escape(str(path))) as err:
            load_index(path)
        assert "rebuild" in str(err.value)

    def test_capped_v3_manifest_is_rejected(self, tmp_path):
        import shutil

        root = tmp_path / "capped"
        shutil.copytree(V3_CENTERS_FIXTURE, root)
        manifest = root / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["config"]["max_embeddings_per_graph"] = 2
        manifest.write_text(json.dumps(doc))
        with pytest.raises(SerializationError, match=re.escape(str(manifest))) as err:
            load_index(root)
        assert "rebuild" in str(err.value)
