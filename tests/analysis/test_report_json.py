"""The JSON report is a stable, auditable CI artifact.

Schema under test: top-level keys ``files_checked`` / ``violations`` /
``suppressed`` / ``suppressed_count`` / ``counts_by_rule`` / ``ok``;
each record carries ``path``/``line``/``col``/``rule``/``message`` and
lists are ordered by (path, line, col, rule) so two runs over the same
tree serialize byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.engine import lint_paths, lint_source_full
from repro.analysis.report import render_json, render_text

RACY = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        return self._count
"""

WAIVED = RACY.replace(
    "        return self._count",
    "        return self._count  # noqa: REPRO201 single-writer phase, waived",
)

TOP_LEVEL_KEYS = {
    "counts_by_rule",
    "files_checked",
    "ok",
    "suppressed",
    "suppressed_count",
    "violations",
}
RECORD_KEYS = {"path", "line", "col", "rule", "message"}


def _report_for(tmp_path, sources):
    for name, source in sources.items():
        (tmp_path / name).write_text(source)
    return lint_paths([tmp_path], select=("REPRO2",))


def test_json_schema_on_a_repro2_finding(tmp_path):
    report = _report_for(tmp_path, {"racy.py": RACY})
    payload = json.loads(render_json(report))
    assert set(payload) == TOP_LEVEL_KEYS
    assert payload["files_checked"] == 1
    assert payload["ok"] is False
    assert payload["counts_by_rule"] == {"REPRO201": 1}
    (record,) = payload["violations"]
    assert set(record) == RECORD_KEYS
    assert record["rule"] == "REPRO201"
    assert record["path"].endswith("racy.py")
    assert record["line"] > 0 and record["col"] >= 0
    assert "guarded by" in record["message"]


def test_json_reports_noqa_suppressions(tmp_path):
    report = _report_for(tmp_path, {"waived.py": WAIVED})
    payload = json.loads(render_json(report))
    assert payload["ok"] is True
    assert payload["violations"] == []
    assert payload["suppressed_count"] == 1
    (record,) = payload["suppressed"]
    assert set(record) == RECORD_KEYS
    assert record["rule"] == "REPRO201"


def test_json_is_deterministic_and_sorted(tmp_path):
    sources = {"b_second.py": RACY, "a_first.py": RACY, "c_waived.py": WAIVED}
    first = render_json(_report_for(tmp_path, sources))
    second = render_json(_report_for(tmp_path, sources))
    assert first == second
    payload = json.loads(first)
    locations = [
        (r["path"], r["line"], r["col"], r["rule"])
        for r in payload["violations"]
    ]
    assert locations == sorted(locations)
    assert [r["path"].rsplit("/", 1)[-1] for r in payload["violations"]] == [
        "a_first.py",
        "b_second.py",
    ]
    # serialized key order is sorted too (byte-stability, not just set equality)
    assert list(payload) == sorted(payload)


def test_json_zero_files(tmp_path):
    (tmp_path / "empty").mkdir()
    report = lint_paths([tmp_path / "empty"])
    payload = json.loads(render_json(report))
    assert payload["files_checked"] == 0
    assert payload["ok"] is True
    assert payload["violations"] == []
    assert payload["suppressed"] == []


def test_text_zero_files_says_so(tmp_path):
    (tmp_path / "empty").mkdir()
    report = lint_paths([tmp_path / "empty"])
    assert "0 files checked" in render_text(report)


def test_lint_source_full_splits_kept_and_suppressed():
    kept, suppressed = lint_source_full(
        WAIVED, "src/repro/core/fixture.py", select=("REPRO2",)
    )
    assert kept == []
    assert [v.rule_id for v in suppressed] == ["REPRO201"]


#: A hot-path fixture with one noqa-waived finding and one open one.
HOT_FIXTURE = """\
from repro.analysis.guards import hot_path

@hot_path
def dedup(items):
    seen = []
    for x in items:
        if x in seen:  # noqa: REPRO304 - fixture keeps one waived finding
            continue
        if x in seen:
            continue
        seen.append(x)
    return seen
"""


def _hot_fixture(tmp_path: Path) -> Path:
    bad = tmp_path / "repro" / "core" / "fixture.py"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(HOT_FIXTURE)
    return bad


def test_json_schema_unchanged_without_baseline(tmp_path):
    """The key set is frozen: a run that waives a finding adds no keys."""
    report = lint_paths([_hot_fixture(tmp_path)], select=["REPRO3"])
    payload = json.loads(render_json(report))
    assert set(payload) == {
        "counts_by_rule",
        "files_checked",
        "ok",
        "suppressed",
        "suppressed_count",
        "violations",
    }
    assert payload["suppressed_count"] == 1
    assert payload["counts_by_rule"] == {"REPRO304": 1}
