"""Each REPRO3xx rule fires on a minimal fixture and stays quiet on the fix.

Fixtures are written in the style of the serving layer and the
isomorphism enumerator; they are linted as ``src/repro/core/fixture.py``
with ``select=("REPRO3",)`` so the hot-path family is exercised in
isolation from the REPRO1xx determinism rules.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import lint_source, lint_source_full

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

PATH = "src/repro/core/fixture.py"


def rule_ids(source: str, path: str = PATH):
    return [v.rule_id for v in lint_source(source, path, select=("REPRO3",))]


def messages(source: str, path: str = PATH):
    return [v.message for v in lint_source(source, path, select=("REPRO3",))]


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
# REPRO303 — columnar-storage bypass
# ----------------------------------------------------------------------
def test_repro303_materializing_graph_ids_fires():
    src = """
from repro.storage import PostingList

def stage1(db):
    return PostingList.from_sorted(sorted(db.graph_ids()))
"""
    ids = rule_ids(src)
    assert ids == ["REPRO303"]
    assert "universe_posting" in messages(src)[0]


def test_repro303_universe_posting_is_clean():
    src = """
def stage1(db):
    return db.universe_posting()
"""
    assert rule_ids(src) == []


def test_repro303_posting_intersection_is_clean():
    src = """
from repro.storage import PostingList

def constrain(result, ids):
    return result.intersect(PostingList(ids)).to_frozenset()
"""
    assert rule_ids(src) == []


def test_repro303_off_the_query_path_is_clean():
    src = """
def stage1(db):
    return sorted(db.graph_ids())
"""
    assert rule_ids(src, path="src/repro/mining/fixture.py") == []


# ----------------------------------------------------------------------
# REPRO304 — accidental quadratics in hot functions
# ----------------------------------------------------------------------
def test_repro304_list_membership_in_loop_fires():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def dedup(items):
    seen = []
    for x in items:
        if x in seen:
            continue
        seen.append(x)
    return seen
"""
    assert rule_ids(src) == ["REPRO304"]
    assert "membership" in messages(src)[0]


def test_repro304_set_membership_in_loop_is_clean():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def dedup(items):
    seen = set()
    out = []
    for x in items:
        if x in seen:
            continue
        seen.add(x)
        out.append(x)
    return out
"""
    assert rule_ids(src) == []


def test_repro304_list_concat_in_loop_fires():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def build(paths):
    out = []
    for p in paths:
        out = out + [p]
    return out
"""
    assert rule_ids(src) == ["REPRO304"]


def test_repro304_list_concat_on_recursive_path_fires():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def search(pos, placed):
    if pos == 0:
        return placed
    return search(pos - 1, placed + [pos])
"""
    assert rule_ids(src) == ["REPRO304"]
    assert "recursive" in messages(src)[0]


def test_repro304_append_pop_recursion_is_clean():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def search(pos, placed):
    if pos == 0:
        return list(placed)
    placed.append(pos)
    found = search(pos - 1, placed)
    placed.pop()
    return found
"""
    assert rule_ids(src) == []


def test_repro304_container_rebuilt_per_iteration_fires():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def any_known(items, mapping):
    for x in items:
        if x in set(mapping):
            return True
    return False
"""
    assert rule_ids(src) == ["REPRO304"]
    assert "rebuilt" in messages(src)[0]


def test_repro304_hoisted_container_is_clean():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def any_known(items, mapping):
    known = set(mapping)
    for x in items:
        if x in known:
            return True
    return False
"""
    assert rule_ids(src) == []


def test_repro304_slice_in_nested_loop_fires():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def pairs(order, check):
    for pos in range(len(order)):
        for prev in order[:pos]:
            check(order[pos], prev)
"""
    assert rule_ids(src) == ["REPRO304"]
    assert "slice" in messages(src)[0]


def test_repro304_hoisted_slice_is_clean():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def pairs(order, check):
    for pos in range(len(order)):
        earlier = order[:pos]
        for prev in earlier:
            check(order[pos], prev)
"""
    assert rule_ids(src) == []


def test_repro304_cold_functions_are_ignored():
    src = """
def dedup(items):
    seen = []
    for x in items:
        if x in seen:
            continue
        seen.append(x)
    return seen
"""
    assert rule_ids(src, path="src/repro/mining/fixture.py") == []


def test_repro304_hotness_propagates_through_calls():
    src = """
from repro.analysis.guards import hot_path

def dedup(items):
    seen = []
    for x in items:
        if x in seen:
            continue
        seen.append(x)
    return seen

@hot_path
def verify(items):
    return dedup(items)
"""
    assert rule_ids(src) == ["REPRO304"]


def test_repro304_spine_name_in_core_is_hot_without_decorator():
    src = """
def plan(items):
    seen = []
    for x in items:
        if x in seen:
            continue
        seen.append(x)
    return seen
"""
    assert rule_ids(src) == ["REPRO304"]


# ----------------------------------------------------------------------
# REPRO305 — work inside the checkpoint window
# ----------------------------------------------------------------------
def test_repro305_formatting_in_charge_loop_fires():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def expand(frontier, token):
    pending = 0
    for state in frontier:
        pending += 1
        token.charge(pending)
        note = "step {}".format(state)
    return pending
"""
    assert rule_ids(src) == ["REPRO305"]
    assert "charge" in messages(src)[0]


def test_repro305_fstring_in_charge_loop_fires():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def expand(frontier, token, log):
    pending = 0
    for state in frontier:
        pending += 1
        token.charge(pending)
        log.debug(f"expanding {state}")
    return pending
"""
    ids = rule_ids(src)
    assert ids == ["REPRO305", "REPRO305"]  # the .debug call and the f-string


def test_repro305_work_outside_charge_loop_is_clean():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def expand(frontier, token):
    pending = 0
    for state in frontier:
        pending += 1
        token.charge(pending)
    note = "total {}".format(pending)
    return note
"""
    assert rule_ids(src) == []


def test_repro305_loops_without_charge_are_ignored():
    src = """
from repro.analysis.guards import hot_path

@hot_path
def expand(frontier, token):
    if token is not None:
        token.poll()
    out = []
    for state in frontier:
        out.append("step {}".format(state))
    return out
"""
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# family mechanics
# ----------------------------------------------------------------------
QUADRATIC = """
from repro.analysis.guards import hot_path

@hot_path
def dedup(items):
    seen = []
    for x in items:
        if x in seen:
            continue
        seen.append(x)
    return seen
"""


def test_specific_rule_select():
    kept = lint_source(QUADRATIC, PATH, select=("REPRO304",))
    assert [v.rule_id for v in kept] == ["REPRO304"]
    kept = lint_source(QUADRATIC, PATH, select=("REPRO305",))
    assert kept == []


def test_noqa_suppresses_and_is_recorded():
    suppressed_src = QUADRATIC.replace(
        "if x in seen:",
        "if x in seen:  # noqa: REPRO304 - tiny list, bounded by piece count",
    )
    kept, suppressed = lint_source_full(
        suppressed_src, PATH, select=("REPRO3",)
    )
    assert kept == []
    assert [v.rule_id for v in suppressed] == ["REPRO304"]


def test_cli_fires_on_each_hotpath_fixture(tmp_path):
    fixtures = {
        "REPRO303": (
            "def stage1(db):\n"
            "    return set(db.graph_ids())\n"
        ),
        "REPRO304": QUADRATIC,
        "REPRO305": (
            "from repro.analysis.guards import hot_path\n\n"
            "@hot_path\n"
            "def expand(frontier, token):\n"
            "    pending = 0\n"
            "    for state in frontier:\n"
            "        pending += 1\n"
            "        token.charge(pending)\n"
            "        note = 'step {}'.format(state)\n"
            "    return pending\n"
        ),
    }
    for rule_id, source in fixtures.items():
        bad = tmp_path / "repro" / "core" / f"bad_{rule_id.lower()}.py"
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text(source)
        proc = _run_cli("lint", "--select", "REPRO3", str(bad))
        assert proc.returncode == 1, f"{rule_id}: {proc.stdout}{proc.stderr}"
        assert rule_id in proc.stdout, f"{rule_id} not reported: {proc.stdout}"
        bad.unlink()


# ----------------------------------------------------------------------
# the real query path: seeded cost bugs only these rules report
# ----------------------------------------------------------------------
#: (rule id, module under src/repro, original text, mutated text) — each
#: a one-line change that keeps every answer, so the runtime suite
#: passes and only the rule sees the extra work.
REAL_MUTATIONS = [
    pytest.param(
        "REPRO303",
        "core/feature.py",
        "return self.store.graph_ids().to_frozenset()",
        "return frozenset(self.store.graph_ids())",
        id="direct-hit-rebuilds-the-support-set",
    ),
    pytest.param(
        "REPRO303",
        "baselines/gindex.py",
        "candidates = self._db.universe_posting()",
        "candidates = PostingList(sorted(self._db.graph_ids()))",
        id="filter-sorts-the-universe",
    ),
    pytest.param(
        "REPRO304",
        "core/treepi.py",
        "if self.verify(plan, gid, token=token):",
        "if gid not in unresolved and self.verify(plan, gid, token=token):",
        id="verify-plans-probes-a-list",
    ),
    pytest.param(
        "REPRO304",
        "core/treepi.py",
        "singles.append(key)",
        "singles = singles + [key]",
        id="levels-concatenate-edge-keys",
    ),
    pytest.param(
        "REPRO304",
        "core/treepi.py",
        "if key in lookup and key not in sfq:",
        "if key in set(lookup) and key not in sfq:",
        id="plan-rebuilds-the-lookup-per-key",
    ),
    pytest.param(
        "REPRO305",
        "graphs/isomorphism.py",
        "token.charge(steps)  # raises BudgetExceeded",
        'token.charge(int(f"{steps}"))  # raises BudgetExceeded',
        id="enumerator-formats-in-the-window",
    ),
    pytest.param(
        "REPRO305",
        "graphs/isomorphism.py",
        "                if len(row) < want_degree:",
        "                if len(sorted(row)) < want_degree:",
        id="enumerator-sorts-in-the-window",
    ),
]


@pytest.mark.parametrize("rule_id, module, original, mutated", REAL_MUTATIONS)
def test_seeded_query_path_cost_is_reported_by_its_rule(
    rule_id, module, original, mutated
):
    """A refactor that moves the site fails the exact-match assertion;
    one that blinds the rule to this shape fails the lint."""
    path = SRC / "repro" / module
    source = path.read_text(encoding="utf-8")
    assert source.count(original) == 1, "mutation site moved; update the fixture"
    assert rule_ids(source, str(path)) == []
    assert set(rule_ids(source.replace(original, mutated), str(path))) == {rule_id}
