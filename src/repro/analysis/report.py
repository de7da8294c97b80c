"""Rendering of lint reports for the CLI and CI logs."""

from __future__ import annotations

import json
from typing import List

from repro.analysis.engine import LintReport


def render_text(report: LintReport, statistics: bool = False) -> str:
    """flake8-style listing plus an optional per-rule summary."""
    lines: List[str] = [v.format() for v in report.violations]
    if statistics:
        for rule_id, count in report.counts_by_rule().items():
            lines.append(f"{count:5d}  {rule_id}")
    if report.files_checked == 0:
        # An empty input set is not a pass by omission: say so explicitly
        # (and still exit 0 — nothing was checked, nothing failed).
        lines.append("OK: 0 files checked (no Python files found under the given paths)")
    elif report.ok:
        lines.append(f"OK: {report.files_checked} file(s) checked, 0 violations")
    else:
        lines.append(
            f"FAIL: {report.files_checked} file(s) checked, "
            f"{len(report.violations)} violation(s)"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report, consumed as a CI artifact.

    Stable schema: top-level keys are sorted, record lists are ordered by
    (path, line, col, rule) — two runs over the same tree serialize
    byte-identically.  ``suppressed`` lists the hits silenced by ``noqa``
    so waived findings stay auditable.
    """
    payload = {
        "files_checked": report.files_checked,
        "violations": [v.to_dict() for v in report.violations],
        "suppressed": [v.to_dict() for v in report.suppressed_violations],
        "suppressed_count": report.suppressed,
        "counts_by_rule": report.counts_by_rule(),
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
