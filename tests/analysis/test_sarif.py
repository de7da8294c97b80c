"""Report-schema stability on a hot-path fixture.

The classic JSON payload is a CI artifact with a frozen key set; a run
that waives one finding with ``# noqa`` must not add keys to it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.report import render_json

FIXTURE = """\
from repro.analysis.flow import hot_path

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


def _fixture(tmp_path: Path) -> Path:
    bad = tmp_path / "repro" / "core" / "fixture.py"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(FIXTURE)
    return bad


def test_json_schema_unchanged_without_baseline(tmp_path):
    report = lint_paths([_fixture(tmp_path)], select=["REPRO3"])
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
