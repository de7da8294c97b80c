"""The repository passes its own gate: linting ``src/`` finds nothing.

``src/`` is linted once, in-process (:func:`test_src_tree_is_clean`).
The CLI entry point the CI workflow calls is exercised on small
fixtures, including its exit codes (0 clean, 1 violations, 2 contract
failure).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.engine import lint_paths
from repro.analysis.rules import all_rules, rule_catalog

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_src_tree_is_clean():
    report = lint_paths([SRC])
    assert report.files_checked > 50
    assert report.violations == [], "\n".join(
        v.format() for v in report.violations
    )


def test_segment_storage_module_is_clean():
    """The mmap segment subsystem passes the lint alone, with zero findings.

    The src-tree gate above covers it too; linting one file through
    :func:`lint_paths` must agree with the whole-tree run.
    """
    target = SRC / "repro" / "storage" / "segments.py"
    assert target.exists()
    report = lint_paths([target])
    assert report.files_checked == 1
    assert report.violations == [], "\n".join(
        v.format() for v in report.violations
    )


def test_cli_lint_exits_nonzero_on_each_rule_fixture(tmp_path):
    fixtures = {
        "REPRO103": "def f(xs):\n    return sorted(xs, key=id)\n",
        "REPRO111": "import random\n\ndef f(xs):\n    return random.choice(xs)\n",
        "REPRO112": "from random import shuffle\n",
        "REPRO121": "def f():\n    try:\n        g()\n    except:\n        pass\n",
        "REPRO122": "def f(x):\n    print(x)\n",
        "REPRO123": "def f(db, gid):\n    db[gid].add_edge(0, 1, 'x')\n",
    }
    for rule_id, source in fixtures.items():
        bad = tmp_path / "repro" / "mining" / f"bad_{rule_id.lower()}.py"
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text(source)
        proc = _run_cli("lint", str(bad))
        assert proc.returncode == 1, f"{rule_id}: {proc.stdout}{proc.stderr}"
        assert rule_id in proc.stdout, f"{rule_id} not reported: {proc.stdout}"
        bad.unlink()


def test_cli_lint_exits_nonzero_on_each_concurrency_fixture(tmp_path):
    engine_preamble = (
        "import threading\n\n"
        "class Engine:\n"
        "    def __init__(self, pool):\n"
        "        self._lock = threading.Lock()\n"
        "        self._pool = pool\n"
        "        self._cache = {}\n"
        "        self._generation = 0\n\n"
        "    def invalidate(self):\n"
        "        with self._lock:\n"
        "            self._generation += 1\n"
        "            self._cache.clear()\n\n"
    )
    fixtures = {
        "REPRO201": engine_preamble + (
            "    def peek(self):\n"
            "        return self._cache.get(0)\n"
        ),
        "REPRO202": engine_preamble + (
            "    def rebuild(self, builder):\n"
            "        with self._lock:\n"
            "            self._cache.update(builder.build())\n"
        ),
        "REPRO203": engine_preamble + (
            "    def dump(self):\n"
            "        with self._lock:\n"
            "            return self._cache\n"
        ),
        "REPRO204": engine_preamble + (
            "    def store(self, key, value):\n"
            "        with self._lock:\n"
            "            self._cache[key] = value\n"
        ),
    }
    for rule_id, source in fixtures.items():
        bad = tmp_path / f"bad_{rule_id.lower()}.py"
        bad.write_text(source)
        proc = _run_cli("lint", "--select", "REPRO2", str(bad))
        assert proc.returncode == 1, f"{rule_id}: {proc.stdout}{proc.stderr}"
        assert rule_id in proc.stdout, f"{rule_id} not reported: {proc.stdout}"
        bad.unlink()


def test_cli_lint_zero_python_files_exits_zero(tmp_path):
    empty = tmp_path / "no_python_here"
    empty.mkdir()
    (empty / "notes.txt").write_text("nothing to lint\n")
    proc = _run_cli("lint", str(empty))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 files checked" in proc.stdout


def test_cli_lint_writes_nothing_to_disk(tmp_path):
    """A lint run is read-only: no cache, report or state file appears."""
    bad = tmp_path / "repro" / "mining" / "fixture.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(xs):\n    return sorted(xs, key=id)\n")
    before = sorted(tmp_path.rglob("*"))
    for fmt in ("text", "json"):
        proc = _run_cli("lint", "--format", fmt, "repro", cwd=tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "REPRO103" in proc.stdout
    assert sorted(tmp_path.rglob("*")) == before


def test_noqa_comments_are_specific_and_justified():
    """Every suppression in ``src/`` names its rule and explains itself.

    A bare ``# noqa`` silences every rule on the line (including future
    ones) and a bare ``# noqa: REPRO103`` gives reviewers nothing to
    audit, so both are banned: suppressions must be rule-qualified and
    carry a trailing justification (`` - why`` or prose after the code).
    """
    import re

    pattern = re.compile(r"#\s*noqa(?P<spec>[^\n]*)")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if "analysis" in path.parts:
            continue  # the linter's own docs/regexes mention noqa
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = pattern.search(line)
            if match is None:
                continue
            spec = match.group("spec").strip()
            if not spec.startswith(":") or not re.match(r":\s*REPRO\d{3}", spec):
                offenders.append(f"{path}:{lineno}: bare or unqualified noqa")
            elif not re.match(r":\s*REPRO\d{3}(?:\s*,\s*REPRO\d{3})*\s+\S", spec):
                offenders.append(f"{path}:{lineno}: no justification text")
    assert offenders == [], "\n".join(offenders)


def test_engine_module_is_lint_clean():
    """The serving layer passes every REPRO rule without suppressions."""
    engine_path = SRC / "repro" / "core" / "engine.py"
    report = lint_paths([engine_path])
    assert report.violations == []
    assert "noqa" not in engine_path.read_text()


def test_cli_rules_prints_full_catalog():
    proc = _run_cli("rules")
    assert proc.returncode == 0
    for cls in all_rules():
        assert cls.rule_id in proc.stdout
    # library view matches the CLI view
    assert rule_catalog().splitlines()[0] in proc.stdout


def test_cli_contracts_self_test_passes():
    proc = _run_cli("contracts")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "contract" in proc.stdout.lower()


def test_library_import_does_not_load_the_linter():
    """``import repro.core`` pulls in the runtime halves only: contracts,
    guards and ``hot_path`` — never the lint engine or its rules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys, repro.core; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert "repro.analysis.engine" not in loaded, loaded
    assert "repro.analysis.rules" not in loaded, loaded
