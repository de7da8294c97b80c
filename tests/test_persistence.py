"""Unit tests for index persistence (save/load without re-mining)."""

import json
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
from repro.serving import ShardedEngine


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
            assert twin.locations == original.locations

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
            assert twin.locations == original.locations
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
        doc["features"][0]["occ"]["offsets"] = [0]
        with pytest.raises(SerializationError):
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
}


def _answers_like(restored, original, seed=5):
    for query in extract_query_workload(original.database, 4, 6, seed=seed):
        assert restored.query(query).matches == original.query(query).matches


class TestRetiredConfigKeys:
    """Files from builds that chose a verification path still load.

    Older builds wrote ``enable_center_prune``, ``direct_verification_
    max_edges`` and ``center_prune_budget`` into every config; none of
    them affected answers, so readers ignore them and writers omit them.
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
        tier = ShardedEngine(small_index.database, small_index.config, 2)
        tier.save_segments(tmp_path)
        manifest = tmp_path / "shards.json"
        doc = json.loads(manifest.read_text())
        assert not set(RETIRED_KEYS) & set(doc["config"])
        doc["config"].update(RETIRED_KEYS)
        manifest.write_text(json.dumps(doc))
        _answers_like(ShardedEngine.open_segments(tmp_path), small_index)
