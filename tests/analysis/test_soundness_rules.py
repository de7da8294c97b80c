"""Each REPRO4xx rule fires on a minimal fixture and stays quiet on the
fix.

Single-file fixtures lint through the standalone one-file program
(``lint_source`` with no driver-attached model); the cross-module
REPRO404 pair uses a mini-package on disk through :func:`lint_paths`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.engine import lint_paths

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


# ----------------------------------------------------------------------
# REPRO401 — resource leak on exception edges
# ----------------------------------------------------------------------
def test_repro401_release_on_fall_through_only_fires():
    src = """
from concurrent.futures import ThreadPoolExecutor

def scatter(shards):
    pool = ThreadPoolExecutor(max_workers=4)
    outs = [pool.submit(s.run) for s in shards]
    pool.shutdown(wait=False)
    return [o.result(timeout=1.0) for o in outs]
"""
    assert rule_ids(src) == ["REPRO401"]
    assert "fall-through" in messages(src)[0]


def test_repro401_never_released_fires():
    src = """
from concurrent.futures import ThreadPoolExecutor

def scatter(shards):
    pool = ThreadPoolExecutor(max_workers=4)
    return_values = [pool.submit(s.run) for s in shards]
"""
    assert rule_ids(src) == ["REPRO401"]
    assert "never released" in messages(src)[0]


def test_repro401_release_in_finally_is_clean():
    src = """
from concurrent.futures import ThreadPoolExecutor

def scatter(shards):
    pool = ThreadPoolExecutor(max_workers=4)
    try:
        outs = [pool.submit(s.run) for s in shards]
        return [o.result(timeout=1.0) for o in outs]
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
"""
    assert rule_ids(src) == []


def test_repro401_with_statement_is_clean():
    src = """
from concurrent.futures import ThreadPoolExecutor

def scatter(shards):
    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = [pool.submit(s.run) for s in shards]
        return [o.result(timeout=1.0) for o in outs]
"""
    assert rule_ids(src) == []


def test_repro401_ownership_transfer_is_clean():
    src = """
from concurrent.futures import ThreadPoolExecutor

class Tier:
    def start(self):
        pool = ThreadPoolExecutor(max_workers=4)
        self._pool = pool

def make_pool():
    pool = ThreadPoolExecutor(max_workers=4)
    return pool
"""
    assert rule_ids(src) == []


def test_repro401_mmap_never_released_fires():
    src = """
import mmap

def open_segment(handle):
    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    header = mapped[:8]
    return header
"""
    assert rule_ids(src) == ["REPRO401"]
    assert "mmap" in messages(src)[0]
    assert "never released" in messages(src)[0]


def test_repro401_mmap_release_on_fall_through_only_fires():
    src = """
import mmap

def read_header(handle):
    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    header = parse(mapped[:64])
    mapped.close()
    return header
"""
    assert rule_ids(src) == ["REPRO401"]
    assert "fall-through" in messages(src)[0]


def test_repro401_mmap_ok_flag_finally_is_clean():
    """The segment reader's open pattern: release lexically in a finally
    unless the constructor finished and ownership moved to ``self``."""
    src = """
import mmap

class Segment:
    def __init__(self, handle):
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        ok = False
        try:
            self.header = parse(mapped[:64])
            ok = True
        finally:
            if not ok:
                mapped.close()
        self._mm = mapped
"""
    assert rule_ids(src) == []


def test_repro401_lock_release_outside_finally_fires():
    src = """
def critical(lock, work):
    lock.acquire()
    work()
    lock.release()
"""
    assert rule_ids(src) == ["REPRO401"]
    assert "lock held" in messages(src)[0]


def test_repro401_lock_release_in_finally_is_clean():
    src = """
def critical(lock, work):
    lock.acquire()
    try:
        work()
    finally:
        lock.release()
"""
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# REPRO402 — exception severs the degradation contract
# ----------------------------------------------------------------------
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


def test_repro402_broad_swallow_on_spine_fires():
    src = """
def query(g, budget=None):
    try:
        return execute(g, budget)
    except Exception:
        pass
"""
    assert rule_ids(src) == ["REPRO402"]
    assert "overbroad" in messages(src)[0]


def test_repro402_recorded_failure_is_clean():
    src = """
def query(g, budget=None):
    failures = []
    try:
        return execute(g, budget)
    except Exception as exc:
        failures.append(exc)
    return degrade(g, failures)
"""
    assert rule_ids(src) == []


def test_repro402_broad_swallow_off_spine_is_clean():
    src = """
def tidy(rows):
    try:
        return normalize(rows)
    except Exception:
        pass
"""
    # a cold utility function may deliberately best-effort
    assert rule_ids(src, path="src/repro/graphs/fixture.py") == []


# ----------------------------------------------------------------------
# REPRO403 — unsound failure paths
# ----------------------------------------------------------------------
def test_repro403_bare_result_from_failure_handler_fires():
    src = """
from repro.core.statistics import QueryResult

def query(g, budget=None):
    try:
        return execute(g, budget)
    except TimeoutError:
        return QueryResult(matches=frozenset())
"""
    assert rule_ids(src) == ["REPRO403"]
    assert "unresolved" in messages(src)[0]


def test_repro403_bracketed_result_is_clean():
    src = """
from repro.core.statistics import QueryResult

def query(g, universe, budget=None):
    try:
        return execute(g, budget)
    except TimeoutError:
        return QueryResult(
            matches=frozenset(),
            unresolved=frozenset(universe),
            degraded_reason="deadline",
        )
"""
    assert rule_ids(src) == []


def test_repro403_unsound_helper_return_fires():
    src = """
from repro.core.statistics import QueryResult

def _empty():
    return QueryResult(matches=frozenset())

def query(g, budget=None):
    try:
        return execute(g, budget)
    except TimeoutError:
        return _empty()
"""
    assert rule_ids(src) == ["REPRO403"]
    assert "_empty" in messages(src)[0]


def test_repro403_sound_helper_return_is_clean():
    src = """
from repro.core.statistics import QueryResult

def _degraded(universe, why):
    return QueryResult(
        matches=frozenset(),
        unresolved=frozenset(universe),
        degraded_reason=why,
    )

def query(g, universe, budget=None):
    try:
        return execute(g, budget)
    except TimeoutError:
        return _degraded(universe, "deadline")
"""
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# REPRO404 — cross-module token-forwarding drops (mini-package)
# ----------------------------------------------------------------------
_TIER_DROP = """\
from repro.core.work import scan

def query(g, token=None):
    return scan(g)
"""

_TIER_FORWARD = """\
from repro.core.work import scan

def query(g, token=None):
    return scan(g, token=token)
"""

_WORK = """\
def scan(g, token=None):
    out = []
    for x in g:
        if token is not None and token.is_cancelled():
            break
        out.append(x)
    return out
"""


_ENGINE = """\
from repro.graphs.tier import query as tier_query

def query(g, token=None):
    return tier_query(g, token=token)
"""


def _mini_package(tmp_path: Path, tier_source: str) -> Path:
    """``core/engine.py`` (the spine) → ``graphs/tier.py`` → ``core/work.py``.

    ``tier.query`` is hot only through the cross-file call from the
    spine, so the per-file REPRO301 hot set never sees it.
    """
    root = tmp_path / "proj"
    (root / "repro" / "graphs").mkdir(parents=True)
    (root / "repro" / "core").mkdir(parents=True)
    (root / "repro" / "core" / "engine.py").write_text(_ENGINE)
    (root / "repro" / "graphs" / "tier.py").write_text(tier_source)
    (root / "repro" / "core" / "work.py").write_text(_WORK)
    return root


def test_repro404_cross_module_drop_fires(tmp_path):
    root = _mini_package(tmp_path, _TIER_DROP)
    report = lint_paths([root], select=["REPRO4"])
    assert [v.rule_id for v in report.violations] == ["REPRO404"]
    (v,) = report.violations
    assert v.path.endswith("tier.py")
    assert "scan" in v.message and "token" in v.message


def test_repro404_forwarded_token_is_clean(tmp_path):
    root = _mini_package(tmp_path, _TIER_FORWARD)
    report = lint_paths([root], select=["REPRO4"])
    assert report.violations == []


_TIER_IN_FILE = """\
def scan(g, token=None):
    out = []
    for x in g:
        if token is not None and token.is_cancelled():
            break
        out.append(x)
    return out

def query(g, token=None):
    return scan(g{forward})
"""


@pytest.mark.parametrize("forward", ["", ", token=token"])
def test_repro404_judges_in_file_calls_of_cross_hot_functions(tmp_path, forward):
    """``tier.query`` is hot only through the spine's cross-file call, so
    REPRO301 never judges it; dropping its token into the looping,
    token-taking ``scan`` of its own file is still a severed chain."""
    root = _mini_package(tmp_path, _TIER_IN_FILE.format(forward=forward))
    report = lint_paths([root], select=["REPRO3", "REPRO4"])
    if forward:
        assert report.violations == []
        return
    assert [v.rule_id for v in report.violations] == ["REPRO404"]
    (v,) = report.violations
    assert v.path.endswith("tier.py")
    assert "in-file call" in v.message and "scan" in v.message


def test_repro404_defers_to_per_file_repro301(tmp_path):
    """A drop visible to the per-file hot set stays REPRO301 territory:
    404 must not double-report it."""
    root = tmp_path / "proj"
    (root / "repro" / "core").mkdir(parents=True)
    (root / "repro" / "core" / "work.py").write_text(_WORK)
    (root / "repro" / "core" / "tier.py").write_text(_TIER_DROP)
    report = lint_paths([root])
    ids = [v.rule_id for v in report.violations]
    assert "REPRO404" not in ids
    assert "REPRO301" in ids


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_repro4_select_clean_on_src():
    proc = _run_cli("lint", "--select", "REPRO4", "src/repro")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK:" in proc.stdout


def test_cli_repro4_zero_python_files_exits_zero(tmp_path):
    empty = tmp_path / "no_python_here"
    empty.mkdir()
    proc = _run_cli("lint", "--select", "REPRO4", str(empty))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 files checked" in proc.stdout
