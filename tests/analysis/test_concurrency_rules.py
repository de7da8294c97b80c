"""Each REPRO2xx rule fires on a minimal fixture and stays quiet on the fix.

Fixtures are self-contained classes in the style of the serving layer
(:mod:`repro.core.engine`); they are linted with ``select=("REPRO2",)``
so the concurrency family is exercised in isolation from the REPRO1xx
determinism rules.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
PATH = "src/repro/core/fixture.py"


def rule_ids(source: str):
    return [v.rule_id for v in lint_source(source, PATH, select=("REPRO2",))]


def messages(source: str):
    return [v.message for v in lint_source(source, PATH, select=("REPRO2",))]


# ----------------------------------------------------------------------
# REPRO201 — unguarded access to lock-guarded state
# ----------------------------------------------------------------------
def test_repro201_unguarded_read_fires():
    src = """
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
    assert rule_ids(src) == ["REPRO201"]
    assert "_count" in messages(src)[0]


def test_repro201_unguarded_write_fires():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def reset(self):
        self._count = 0
"""
    assert rule_ids(src) == ["REPRO201"]


def test_repro201_locked_access_is_clean():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        with self._lock:
            return self._count
"""
    assert rule_ids(src) == []


def test_repro201_init_writes_are_exempt():
    src = """
import threading

class Engine:
    def __init__(self, seed):
        self._lock = threading.Lock()
        self._count = seed
        self._count += 1

    def bump(self):
        with self._lock:
            self._count += 1
"""
    assert rule_ids(src) == []


def test_repro201_guarded_by_declaration_satisfies_statically():
    src = """
import threading
from repro.analysis.guards import guarded_by

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    @guarded_by("_lock")
    def peek_locked(self):
        return self._count
"""
    assert rule_ids(src) == []


def test_repro201_private_helper_inherits_callers_locks():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def reset(self):
        with self._lock:
            self._count = 0

    def bump(self):
        with self._lock:
            self._bump_locked()

    def _bump_locked(self):
        self._count += 1
"""
    assert rule_ids(src) == []


def test_repro201_helper_with_one_unlocked_caller_fires():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def reset(self):
        with self._lock:
            self._count = 0

    def bump(self):
        with self._lock:
            self._bump_locked()

    def bump_unsafe(self):
        self._bump_locked()

    def _bump_locked(self):
        self._count += 1
"""
    assert rule_ids(src) == ["REPRO201"]


def test_repro201_write_under_read_lock_fires():
    src = """
class Engine:
    def __init__(self):
        self._rw = ReadWriteLock()
        self._data = {}

    def put(self, key, value):
        with self._rw.write_locked():
            self._data[key] = value

    def racy_put(self, key, value):
        with self._rw.read_locked():
            self._data[key] = value
"""
    assert rule_ids(src) == ["REPRO201"]


def test_repro201_read_under_read_lock_is_clean():
    src = """
class Engine:
    def __init__(self):
        self._rw = ReadWriteLock()
        self._data = {}

    def put(self, key, value):
        with self._rw.write_locked():
            self._data[key] = value

    def get(self, key):
        with self._rw.read_locked():
            return self._data.get(key)
"""
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# REPRO202 — blocking work under a writer/exclusive lock
# ----------------------------------------------------------------------
def test_repro202_build_under_lock_fires():
    src = """
import threading

class Engine:
    def __init__(self, builder):
        self._lock = threading.Lock()
        self._builder = builder
        self._index = None

    def rebuild(self):
        with self._lock:
            self._index = self._builder.build()
"""
    assert rule_ids(src) == ["REPRO202"]
    assert "build()" in messages(src)[0]


def test_repro202_build_outside_swap_inside_is_clean():
    src = """
import threading

class Engine:
    def __init__(self, builder):
        self._lock = threading.Lock()
        self._builder = builder
        self._index = None

    def rebuild(self):
        rebuilt = self._builder.build()
        with self._lock:
            self._index = rebuilt
"""
    assert rule_ids(src) == []


def test_repro202_pool_submit_under_writer_lock_fires():
    src = """
class Engine:
    def __init__(self, pool):
        self._rw = ReadWriteLock()
        self._pool = pool
        self._answers = []

    def run(self, jobs):
        with self._rw.write_locked():
            self._answers.append(self._pool.submit(work, jobs))
"""
    assert "REPRO202" in rule_ids(src)


def test_repro202_blocking_under_read_lock_is_clean():
    src = """
class Engine:
    def __init__(self, pool):
        self._rw = ReadWriteLock()
        self._pool = pool

    def run(self, jobs):
        with self._rw.read_locked():
            return self._pool.submit(work, jobs)
"""
    assert rule_ids(src) == []


def test_repro202_wait_on_the_lock_itself_is_exempt():
    src = """
import threading

class Gate:
    def __init__(self):
        self._cond = threading.Condition()
        self._open = False

    def block_until_open(self):
        with self._cond:
            while not self._open:
                self._cond.wait()

    def open(self):
        with self._cond:
            self._open = True
"""
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# REPRO203 — guarded mutable state escaping the locked region
# ----------------------------------------------------------------------
def test_repro203_returning_guarded_container_fires():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {}

    def put(self, key, value):
        with self._lock:
            self._cache[key] = value

    def dump(self):
        with self._lock:
            return self._cache
"""
    assert rule_ids(src) == ["REPRO203"]
    assert "escape" in messages(src)[0]


def test_repro203_returning_a_copy_is_clean():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {}

    def put(self, key, value):
        with self._lock:
            self._cache[key] = value

    def dump(self):
        with self._lock:
            return dict(self._cache)
"""
    assert rule_ids(src) == []


def test_repro203_closure_over_guarded_state_submitted_fires():
    src = """
import threading

class Engine:
    def __init__(self, pool):
        self._lock = threading.Lock()
        self._pool = pool
        self._cache = {}

    def put(self, key, value):
        with self._lock:
            self._cache[key] = value

    def schedule_flush(self):
        with self._lock:
            def flush():
                self._cache.clear()
        self._pool.submit(flush)
"""
    assert "REPRO203" in rule_ids(src)


def test_repro203_closure_over_snapshot_is_clean():
    src = """
import threading

class Engine:
    def __init__(self, pool):
        self._lock = threading.Lock()
        self._pool = pool
        self._cache = {}

    def put(self, key, value):
        with self._lock:
            self._cache[key] = value

    def schedule_report(self):
        with self._lock:
            snapshot = dict(self._cache)

        def report():
            emit(snapshot)
        self._pool.submit(report)
"""
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# REPRO204 — cache store without a generation check
# ----------------------------------------------------------------------
def test_repro204_unchecked_store_fires():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {}
        self._generation = 0

    def invalidate(self):
        with self._lock:
            self._generation += 1
            self._cache.clear()

    def store(self, key, value):
        with self._lock:
            self._cache[key] = value
"""
    assert rule_ids(src) == ["REPRO204"]
    assert "generation" in messages(src)[0]


def test_repro204_generation_checked_store_is_clean():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {}
        self._generation = 0

    def invalidate(self):
        with self._lock:
            self._generation += 1
            self._cache.clear()

    def store(self, key, value, observed):
        with self._lock:
            if observed != self._generation:
                return
            self._cache[key] = value
"""
    assert rule_ids(src) == []


def test_repro204_needs_a_generation_field_to_apply():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {}

    def store(self, key, value):
        with self._lock:
            self._cache[key] = value
"""
    assert rule_ids(src) == []


def test_repro204_cache_removal_is_exempt():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {}
        self._generation = 0

    def invalidate(self):
        with self._lock:
            self._generation += 1
            self._cache.clear()
"""
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# family mechanics
# ----------------------------------------------------------------------
def test_select_family_prefix_runs_only_repro2():
    src = """
import threading
import random

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        return random.random() + self._count
"""
    family_only = [
        v.rule_id for v in lint_source(src, PATH, select=("REPRO2",))
    ]
    assert family_only == ["REPRO201"]
    everything = [v.rule_id for v in lint_source(src, PATH)]
    assert "REPRO201" in everything
    assert "REPRO111" in everything  # random use — outside the family


def test_noqa_suppresses_a_concurrency_finding():
    src = """
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        return self._count  # noqa: REPRO201 single-writer phase, lock-free by design
"""
    assert rule_ids(src) == []


def test_module_level_functions_are_ignored():
    src = """
def helper(engine):
    return engine._count
"""
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# the real serving engine: one seeded bug per rule
# ----------------------------------------------------------------------
ENGINE = REPO_ROOT / "src" / "repro" / "core" / "engine.py"

#: (rule id, original text, mutated text) — each a one-line bug the
#: runtime engine suites do not catch, so the static rule is the guard.
ENGINE_MUTATIONS = [
    pytest.param(
        "REPRO201",
        '        """Number of answers currently cached."""\n'
        "        with self._mutex:\n"
        "            return len(self._cache)\n",
        '        """Number of answers currently cached."""\n'
        "        return len(self._cache)\n",
        id="cached_results-without-mutex",
    ),
    pytest.param(
        "REPRO201",
        "    def _count_pipeline(self, plan: QueryPlan) -> None:\n"
        "        with self._mutex:\n"
        "            self._counters.candidates_filtered += plan.candidates_after_filter\n"
        "            self._counters.verifications_run += len(plan.survivors)\n",
        "    def _count_pipeline(self, plan: QueryPlan) -> None:\n"
        "        self._counters.candidates_filtered += plan.candidates_after_filter\n"
        "        self._counters.verifications_run += len(plan.survivors)\n",
        id="count_pipeline-without-mutex",
    ),
    pytest.param(
        "REPRO202",
        "            with self._rw.read_locked():\n"
        "                rebuilt = self._index.rebuild()\n",
        "            with self._rw.write_locked():\n"
        "                rebuilt = self._index.rebuild()\n",
        id="rebuild-under-writer-lock",
    ),
    pytest.param(
        "REPRO203",
        "            return self._counters.snapshot()\n",
        "            return self._counters\n",
        id="stats-returns-live-counters",
    ),
    pytest.param(
        "REPRO204",
        "        with self._mutex:\n"
        "            if self._generation != generation:\n"
        "                return\n"
        "            if any(entry not in checked",
        "        with self._mutex:\n"
        "            if any(entry not in checked",
        id="cache_store-without-generation-check",
    ),
]


def _engine_rule_ids(source: str):
    found = lint_source(source, "src/repro/core/engine.py", select=("REPRO2",))
    return {v.rule_id for v in found}


def test_real_engine_is_clean_under_repro2():
    assert _engine_rule_ids(ENGINE.read_text(encoding="utf-8")) == set()


@pytest.mark.parametrize("rule_id, original, mutated", ENGINE_MUTATIONS)
def test_seeded_engine_bug_is_reported_by_its_rule(rule_id, original, mutated):
    """A refactor that moves the guarded code fails the exact-match
    assertion; one that blinds the rule to this class fails the lint."""
    source = ENGINE.read_text(encoding="utf-8")
    assert source.count(original) == 1, "mutation site moved; update the fixture"
    assert _engine_rule_ids(source.replace(original, mutated)) == {rule_id}
