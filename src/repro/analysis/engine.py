"""Lint driver: walk files, run rules, honor ``noqa`` suppressions.

The engine is a pure library (no printing): :func:`lint_paths` returns a
:class:`LintReport` that the CLI/report layer renders.  Suppression
follows the flake8 convention —

* ``# noqa`` on a line suppresses every rule on that line,
* ``# noqa: REPRO103`` (comma-separated list allowed) suppresses only
  the named rules.

A file that fails to parse is itself a violation (``REPRO001``): the
gate must not silently skip unparseable code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import repro.analysis.concurrency  # noqa: F401 - registers the REPRO2xx rule family
import repro.analysis.hotpath  # noqa: F401 - registers the REPRO3xx rule family
from repro.analysis.rules import FileContext, rules_for
from repro.analysis.violations import Violation

_NOQA_RE = re.compile(
    r"#\s*noqa(?P<codes>\s*:\s*[A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*)?",
    re.IGNORECASE,
)

#: Rule id reserved for files the engine itself rejects (syntax errors).
PARSE_ERROR_RULE = "REPRO001"


@dataclass
class LintReport:
    """Outcome of one lint run.

    ``suppressed_violations`` keeps the hits silenced by ``noqa`` so the
    JSON report (a CI artifact) can audit what was waived, not just what
    failed.
    """

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed_violations: List[Violation] = field(default_factory=list)

    @property
    def suppressed(self) -> int:
        return len(self.suppressed_violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for v in self.violations:
            counts[v.rule_id] = counts.get(v.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def _suppressed_codes(line: str) -> Optional[frozenset]:
    """Codes suppressed on ``line``; empty frozenset means *all* codes."""
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return frozenset()
    return frozenset(c.strip().upper() for c in codes.lstrip(" :").split(","))


def lint_source_full(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[List[Violation], List[Violation]]:
    """Lint one source string; returns ``(kept, noqa_suppressed)`` lists.

    ``path`` matters: several rules scope themselves by module location
    (e.g. REPRO122 exempts the CLI, REPRO303 judges only the query
    path).  Both lists are sorted by location.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return (
            [
                Violation(
                    path=path,
                    line=exc.lineno or 0,
                    col=(exc.offset or 0),
                    rule_id=PARSE_ERROR_RULE,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            [],
        )
    ctx = FileContext(path, source, tree)
    raw: List[Violation] = []
    for rule in rules_for(ctx, select=select, ignore=ignore):
        raw.extend(rule.run())

    lines = source.splitlines()
    kept: List[Violation] = []
    suppressed: List[Violation] = []
    for violation in raw:
        line_text = lines[violation.line - 1] if 0 < violation.line <= len(lines) else ""
        codes = _suppressed_codes(line_text)
        if codes is not None and (not codes or violation.rule_id in codes):
            suppressed.append(violation)
            continue
        kept.append(violation)
    return sorted(kept), sorted(suppressed)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one source string, returning only the unsuppressed violations."""
    kept, _ = lint_source_full(source, path, select=select, ignore=ignore)
    return kept


def lint_file(
    path: Union[str, Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one file on disk."""
    p = Path(path)
    return lint_source(
        p.read_text(encoding="utf-8"), str(p), select=select, ignore=ignore
    )


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    seen: Dict[Path, None] = {}
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                seen.setdefault(f, None)
        else:
            seen.setdefault(p, None)
    return sorted(seen)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` and aggregate a report.

    Every rule judges one file at a time, so each file is linted alone.
    """
    report = LintReport()
    select = list(select) if select else None
    ignore = list(ignore) if ignore else None
    for f in iter_python_files(paths):
        report.files_checked += 1
        kept, suppressed = lint_source_full(
            Path(f).read_text(encoding="utf-8"), str(f), select=select, ignore=ignore
        )
        report.violations.extend(kept)
        report.suppressed_violations.extend(suppressed)

    report.violations.sort()
    report.suppressed_violations.sort()
    return report
