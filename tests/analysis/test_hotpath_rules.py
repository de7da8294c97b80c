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

import ast

from repro.analysis import lint_source, lint_source_full
from repro.analysis.program import build_program

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

PATH = "src/repro/core/fixture.py"


def rule_ids(source: str, path: str = PATH):
    return [v.rule_id for v in lint_source(source, path, select=("REPRO3",))]


def messages(source: str, path: str = PATH):
    return [v.message for v in lint_source(source, path, select=("REPRO3",))]


#: The spine callee the verify fixtures call, in its own module.
VERIFICATION = """
def verify_candidate(problem, graph, token=None):
    for node in graph:
        if token is not None:
            token.poll()
    return True
"""


def program_findings(source: str):
    """REPRO3 findings for ``source`` at ``PATH`` in a two-module program
    whose other module defines ``verify_candidate``."""
    rows = [(PATH, source), ("src/repro/core/verification.py", VERIFICATION)]
    trees = {path: ast.parse(src) for path, src in rows}
    program = build_program([(path, src, trees[path]) for path, src in rows])
    kept, _ = lint_source_full(
        source, PATH, select=("REPRO3",), tree=trees[PATH], program=program
    )
    return kept


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
# REPRO301 — hot loop severs the cancellation chain
# ----------------------------------------------------------------------
def test_repro301_token_never_read_fires():
    src = """
from repro.analysis.flow import hot_path

@hot_path
def verify(candidates, token=None):
    out = []
    for gid in candidates:
        out.append(gid)
    return out
"""
    assert rule_ids(src) == ["REPRO301"]
    assert "never reads" in messages(src)[0]


def test_repro301_token_polled_in_loop_is_clean():
    src = """
from repro.analysis.flow import hot_path

@hot_path
def verify(candidates, token=None):
    out = []
    for gid in candidates:
        if token is not None:
            token.poll()
        out.append(gid)
    return out
"""
    assert rule_ids(src) == []


def test_repro301_token_dropped_from_spine_callee_fires():
    """The seeded regression: removing ``token=`` from one call flips it."""
    src = """
from repro.analysis.flow import hot_path
from repro.core.verification import verify_candidate

@hot_path
def verify(plans, graph, token=None):
    hits = []
    for problem in plans:
        if token is not None:
            token.poll()
        if verify_candidate(problem, graph):
            hits.append(problem)
    return hits
"""
    found = program_findings(src)
    assert [v.rule_id for v in found] == ["REPRO301"]
    assert "verify_candidate" in found[0].message


def test_repro301_token_forwarded_to_spine_callee_is_clean():
    src = """
from repro.analysis.flow import hot_path
from repro.core.verification import verify_candidate

@hot_path
def verify(plans, graph, token=None):
    hits = []
    for problem in plans:
        if token is not None:
            token.poll()
        if verify_candidate(problem, graph, token=token):
            hits.append(problem)
    return hits
"""
    assert program_findings(src) == []


def test_repro301_shadowed_token_fires():
    src = """
from repro.analysis.flow import hot_path

@hot_path
def plan(query, token=None):
    token = None
    return query
"""
    assert rule_ids(src) == ["REPRO301"]
    assert "reassigned" in messages(src)[0]


ENUMERATOR = """
from repro.analysis.flow import hot_path

@hot_path
def subgraph_monomorphisms(query, graph, token=None):
    if token is not None:
        token.poll()
    pending = 0

    def backtrack(pos, mapping):
        nonlocal pending
        if pos == len(query):
            yield dict(mapping)
            return
        for gv in graph[pos]:
            pending += 1
{charge}            mapping[pos] = gv
            yield from backtrack(pos + 1, mapping)
            del mapping[pos]

    yield from backtrack(0, {{}})
"""

CHARGE_BLOCK = (
    "            if token is not None and pending >= 64:\n"
    "                token.charge(pending)\n"
    "                pending = 0\n"
)


def test_repro301_enumerator_with_checkpoint_is_clean():
    """The isomorphism-style enumerator with its 64-step charge passes."""
    assert rule_ids(ENUMERATOR.format(charge=CHARGE_BLOCK)) == []


def test_repro301_deleting_the_charge_call_fires():
    """Seeded regression: drop ``token.charge`` and the loop is flagged."""
    ids = rule_ids(ENUMERATOR.format(charge=""))
    assert ids == ["REPRO301"]
    assert "no CancellationToken checkpoint" in (
        messages(ENUMERATOR.format(charge=""))[0]
    )


def test_repro301_only_hot_functions_are_checked():
    src = """
def helper(candidates, token=None):
    out = []
    for gid in candidates:
        out.append(gid)
    return out
"""
    assert rule_ids(src, path="src/repro/mining/fixture.py") == []


# ----------------------------------------------------------------------
# REPRO302 — BudgetExceeded swallowed / partial result cached
# ----------------------------------------------------------------------
def test_repro302_swallowed_budget_fires():
    src = """
from repro.exceptions import BudgetExceeded

def run(problem, token):
    try:
        return solve(problem, token)
    except BudgetExceeded:
        pass
"""
    assert rule_ids(src) == ["REPRO302"]
    assert "swallowed" in messages(src)[0]


def test_repro302_converted_to_degraded_result_is_clean():
    src = """
from repro.exceptions import BudgetExceeded

def run(problem, token):
    try:
        return solve(problem, token)
    except BudgetExceeded:
        return Outcome(matches=(), complete=False)
"""
    assert rule_ids(src) == []


def test_repro302_reraise_is_clean():
    src = """
from repro.exceptions import BudgetExceeded

def run(problem, token):
    try:
        return solve(problem, token)
    except BudgetExceeded:
        raise
"""
    assert rule_ids(src) == []


def test_repro302_result_cached_without_complete_check_fires():
    src = """
def remember(cache, key, result):
    cache[key] = result
"""
    assert rule_ids(src) == ["REPRO302"]
    assert ".complete" in messages(src)[0]


def test_repro302_complete_checked_before_caching_is_clean():
    src = """
def remember(cache, key, result):
    if result.complete:
        cache[key] = result
"""
    assert rule_ids(src) == []


def test_repro302_cache_store_outside_core_is_clean():
    src = """
def remember(cache, key, result):
    cache[key] = result
"""
    assert rule_ids(src, path="src/repro/mining/fixture.py") == []


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


def test_repro303_set_universe_seeding_fires():
    src = """
def constrain(result, universe):
    members = set(universe)
    return members
"""
    assert rule_ids(src) == ["REPRO303"]
    assert "set(universe)" in messages(src)[0]


def test_repro303_membership_against_materialized_set_fires():
    src = """
def constrain(result, ids):
    members = set(ids)
    return frozenset(g for g in result if g in members)
"""
    assert rule_ids(src) == ["REPRO303"]
    assert "intersect" in messages(src)[0]


def test_repro303_posting_intersection_is_clean():
    src = """
from repro.storage import PostingList

def constrain(result, universe):
    return result.intersect(PostingList(universe)).to_frozenset()
"""
    assert rule_ids(src) == []


def test_repro303_locations_and_to_mapping_fire():
    src = """
def dump(store):
    table = store.locations
    return store.to_mapping()
"""
    assert rule_ids(src) == ["REPRO303", "REPRO303"]


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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
from repro.analysis.flow import hot_path

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
        "REPRO301": ENUMERATOR.format(charge=""),
        "REPRO302": (
            "def run(problem, token):\n"
            "    try:\n"
            "        return solve(problem, token)\n"
            "    except BudgetExceeded:\n"
            "        pass\n"
        ),
        "REPRO303": (
            "def stage1(db):\n"
            "    return set(db.graph_ids())\n"
        ),
        "REPRO304": QUADRATIC,
        "REPRO305": (
            "from repro.analysis.flow import hot_path\n\n"
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


def test_cli_hotpath_family_clean_on_src():
    """The CI `lint` job's REPRO3 family: src/ has no REPRO3xx violations."""
    proc = _run_cli("lint", "--select", "REPRO3", "src/")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK:" in proc.stdout
