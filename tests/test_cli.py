"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graphs import load_database
from repro.persistence import load_index


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.txt"
    assert main([
        "generate", "--kind", "chemical", "--count", "12", "--size", "12",
        "--out", str(path),
    ]) == 0
    return path


@pytest.fixture
def index_file(tmp_path, db_file):
    path = tmp_path / "index.json"
    assert main([
        "build", "--database", str(db_file), "--out", str(path), "--eta", "3",
    ]) == 0
    return path


class TestGenerate:
    def test_chemical(self, db_file):
        db = load_database(db_file)
        assert len(db) == 12

    def test_synthetic(self, tmp_path):
        path = tmp_path / "synth.txt"
        assert main([
            "generate", "--kind", "synthetic", "--count", "8", "--size", "10",
            "--labels", "4", "--out", str(path),
        ]) == 0
        db = load_database(path)
        assert len(db) == 8
        assert all(0 <= l < 4 for g in db for l in g.vertex_labels())

    def test_queries(self, tmp_path, db_file):
        path = tmp_path / "queries.txt"
        assert main([
            "generate", "--kind", "queries", "--database", str(db_file),
            "--edges", "4", "--count", "3", "--out", str(path),
        ]) == 0
        queries = load_database(path)
        assert len(queries) == 3
        assert all(q.num_edges == 4 for q in queries)

    def test_queries_requires_database(self, tmp_path):
        assert main([
            "generate", "--kind", "queries", "--count", "3",
            "--out", str(tmp_path / "q.txt"),
        ]) == 2


class TestBuildQueryInfo:
    def test_build_writes_loadable_index(self, index_file):
        index = load_index(index_file)
        assert index.feature_count() > 0

    def test_query_output(self, tmp_path, db_file, index_file, capsys):
        queries = tmp_path / "queries.txt"
        main([
            "generate", "--kind", "queries", "--database", str(db_file),
            "--edges", "3", "--count", "2", "--out", str(queries),
        ])
        assert main([
            "query", "--index", str(index_file), "--queries", str(queries),
            "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "query 0:" in out
        assert "total query time" in out
        assert "P'q=" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_query_rejects_a_bad_deadline(
        self, tmp_path, db_file, index_file, capsys, value
    ):
        # argparse's type=float accepts "nan"; a NaN deadline would give a
        # token that never expires.
        queries = tmp_path / "queries.txt"
        main([
            "generate", "--kind", "queries", "--database", str(db_file),
            "--edges", "3", "--count", "1", "--out", str(queries),
        ])
        capsys.readouterr()
        assert main([
            "query", "--index", str(index_file), "--queries", str(queries),
            f"--deadline-ms={value}",
        ]) == 2
        out, err = capsys.readouterr()
        assert "error: QueryBudget.deadline_ms" in err
        assert "query 0:" not in out

    def test_query_answers_match_brute_force(self, tmp_path, db_file, index_file):
        from repro.baselines import SequentialScan

        index = load_index(index_file)
        db = load_database(db_file)
        scan = SequentialScan(db)
        queries = tmp_path / "queries.txt"
        main([
            "generate", "--kind", "queries", "--database", str(db_file),
            "--edges", "4", "--count", "4", "--out", str(queries),
        ])
        for query in load_database(queries):
            assert index.query(query).matches == scan.support_set(query)

    def test_info(self, index_file, capsys):
        assert main(["info", "--index", str(index_file)]) == 0
        out = capsys.readouterr().out
        assert "features:" in out
        assert "sigma:" in out


class TestSegmentCommands:
    @pytest.fixture
    def segment_dir(self, tmp_path, db_file):
        root = tmp_path / "idx3"
        assert main([
            "build", "--database", str(db_file), "--out", str(root),
            "--eta", "3", "--mmap",
        ]) == 0
        return root

    def test_build_mmap_writes_a_segment_directory(self, segment_dir):
        assert segment_dir.is_dir()
        assert (segment_dir / "manifest.json").exists()
        assert (segment_dir / "seg-000000.seg").exists()
        index = load_index(segment_dir)
        try:
            assert index.segment_backed
            assert index.feature_count() > 0
        finally:
            index.segment_store.close()

    def test_query_serves_from_a_segment_directory(
        self, tmp_path, db_file, index_file, segment_dir, capsys
    ):
        queries = tmp_path / "queries.txt"
        main([
            "generate", "--kind", "queries", "--database", str(db_file),
            "--edges", "3", "--count", "3", "--out", str(queries),
        ])
        assert main([
            "query", "--index", str(segment_dir), "--queries", str(queries),
        ]) == 0
        mmap_out = capsys.readouterr().out
        assert main([
            "query", "--index", str(index_file), "--queries", str(queries),
        ]) == 0
        json_out = capsys.readouterr().out
        # Identical answers (line-for-line) over either backing.
        mmap_lines = [l for l in mmap_out.splitlines() if l.startswith("query")]
        json_lines = [l for l in json_out.splitlines() if l.startswith("query")]
        assert mmap_lines == json_lines

    def test_index_segments_prints_per_segment_stats(
        self, segment_dir, capsys
    ):
        assert main(["index", "segments", "--index", str(segment_dir)]) == 0
        out = capsys.readouterr().out
        assert "seg-000000.seg" in out
        assert "live" in out
        assert "memtable_limit=" in out
        assert "1 segment(s) (0 delta)" in out

    def test_index_compact_is_a_noop_on_a_single_segment(
        self, segment_dir, capsys
    ):
        assert main(["index", "compact", "--index", str(segment_dir)]) == 0
        out = capsys.readouterr().out
        assert "nothing to compact" in out

    def test_index_compact_folds_deltas(self, db_file, segment_dir, capsys):
        index = load_index(segment_dir)
        try:
            graph = load_database(db_file)[0]
            index.insert(graph)
            gid = sorted(index.database.graph_ids())[0]
            index.delete(gid)
            assert index.flush_segments()
        finally:
            index.segment_store.close()
        assert main(["index", "segments", "--index", str(segment_dir)]) == 0
        assert "1 delta" in capsys.readouterr().out
        assert main(["index", "compact", "--index", str(segment_dir)]) == 0
        assert "compacted 2 segment(s) -> 1" in capsys.readouterr().out
        reopened = load_index(segment_dir)
        try:
            assert gid not in set(reopened.database.graph_ids())
        finally:
            reopened.segment_store.close()

    def test_index_segments_rejects_a_json_index(self, index_file, capsys):
        assert main(["index", "segments", "--index", str(index_file)]) == 2
        assert "not a v3 segment directory" in capsys.readouterr().err


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "--figure", "fig99"])
