"""REPRO402: a ``ContractViolation`` caught in ``repro.core`` must re-raise.

Contracts run only under ``REPRO_CONTRACTS=1``, and a handler that
swallows one leaves every answer intact while hiding the broken
invariant, so no runtime test sees the bug; the rule is its guard.  The
last test seeds that bug into the real serving engine.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.engine import lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

SPINE_PATH = "src/repro/core/fixture.py"


def rule_ids(source: str, path: str = SPINE_PATH):
    return [v.rule_id for v in lint_source(source, path, select=("REPRO4",))]


def messages(source: str, path: str = SPINE_PATH):
    return [v.message for v in lint_source(source, path, select=("REPRO4",))]


def _run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_repro402_swallowed_contract_violation_fires():
    src = """
from repro.analysis.contracts import ContractViolation

def merge(outcomes):
    try:
        return combine(outcomes)
    except ContractViolation:
        return None
"""
    assert rule_ids(src) == ["REPRO402"]
    assert "re-raise" in messages(src)[0]


def test_repro402_reraised_contract_violation_is_clean():
    src = """
from repro.analysis.contracts import ContractViolation

def merge(outcomes):
    try:
        return combine(outcomes)
    except ContractViolation:
        raise
"""
    assert rule_ids(src) == []


def test_repro402_is_scoped_to_core():
    src = """
from repro.analysis.contracts import ContractViolation

def tidy(rows):
    try:
        return normalize(rows)
    except ContractViolation:
        return None
"""
    assert rule_ids(src, path="src/repro/graphs/fixture.py") == []


# ----------------------------------------------------------------------
# the real verification loop: the seeded bug only the rule reports
# ----------------------------------------------------------------------
TREEPI = SRC / "repro" / "core" / "treepi.py"
HANDLER = (
    "            except BudgetExceeded:\n"
    "                unresolved.append(gid)  # neither matched nor rejected\n"
)


def test_seeded_contract_swallow_in_run_is_reported():
    """``TreePiIndex.run`` swallowing ContractViolation passes the runtime
    suite (the answers stay exact); only REPRO402 reports it."""
    source = TREEPI.read_text(encoding="utf-8")
    assert source.count(HANDLER) == 1, "mutation site moved; update the fixture"
    assert rule_ids(source, str(TREEPI)) == []
    mutated = source.replace(
        HANDLER,
        HANDLER + "            except ContractViolation:\n                pass\n",
    )
    assert rule_ids(mutated, str(TREEPI)) == ["REPRO402"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_repro4_zero_python_files_exits_zero(tmp_path):
    empty = tmp_path / "no_python_here"
    empty.mkdir()
    proc = _run_cli("lint", "--select", "REPRO4", str(empty))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 files checked" in proc.stdout
