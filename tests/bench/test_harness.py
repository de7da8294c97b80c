"""Unit tests for the benchmark harness plumbing."""

import pytest

from repro.bench import Scale, Table, current_scale, geometric_mean, output_dir


class TestTable:
    def test_add_row_and_column(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row(3, 4.0)
        assert t.column("a") == [1, 3]
        assert t.column("b") == [2.5, 4.0]

    def test_add_row_arity_checked(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_render_contains_everything(self):
        t = Table("demo", ["name", "value"], notes=["a note"])
        t.add_row("x", 1.23456)
        text = t.render()
        assert "demo" in text
        assert "name" in text and "value" in text
        assert "1.2346" in text  # floats formatted to 4 places
        assert "# a note" in text

    def test_render_empty_table(self):
        t = Table("empty", ["only"])
        assert "only" in t.render()

    def test_to_csv(self, tmp_path):
        t = Table("demo", ["a", "b"])
        t.add_row(1, "x")
        path = tmp_path / "out.csv"
        t.to_csv(path)
        assert path.read_text() == "a,b\n1,x\n"
        t.notes.extend(["expect x", "over 6 queries"])
        t.to_csv(path)
        assert path.read_text() == (
            "a,b\n1,x\n# expect x\n# over 6 queries\n"
        )

    def test_unknown_column(self):
        t = Table("demo", ["a"])
        with pytest.raises(ValueError):
            t.column("missing")


class TestScale:
    def test_default_scale_is_tiny(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_scale().name == "tiny"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert current_scale().name == "small"

    def test_case_insensitive(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "MEDIUM")
        assert current_scale().name == "medium"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(KeyError):
            current_scale()

    def test_scales_are_ordered(self, monkeypatch):
        sizes = []
        for name in ("tiny", "small", "medium"):
            monkeypatch.setenv("REPRO_BENCH_SCALE", name)
            sizes.append(max(current_scale().db_sizes))
        assert sizes == sorted(sizes)


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([5]) == pytest.approx(5.0)

    def test_geometric_mean_ignores_nonpositive(self):
        assert geometric_mean([0, 4]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, -3]) == 0.0

    def test_output_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path / "nested" / "out"))
        path = output_dir()
        assert path.is_dir()
        assert path.name == "out"


class TestExperimentCaching:
    def test_database_memoized(self):
        from repro.bench import clear_caches, get_database
        from repro.bench.harness import Scale

        micro = Scale(
            name="micro", db_sizes=(5,), query_db_size=5, queries_per_size=1,
            query_sizes=(2,), avg_atoms=8, eta=3,
        )
        clear_caches()
        first = get_database("chemical", 5, micro)
        second = get_database("chemical", 5, micro)
        assert first is second
        clear_caches()
        third = get_database("chemical", 5, micro)
        assert third is not first

    def test_unknown_dataset_kind(self):
        from repro.bench import get_database
        from repro.bench.harness import Scale

        micro = Scale(
            name="micro", db_sizes=(5,), query_db_size=5, queries_per_size=1,
            query_sizes=(2,), avg_atoms=8, eta=3,
        )
        with pytest.raises(ValueError):
            get_database("nope", 5, micro)
