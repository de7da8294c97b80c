"""Each lint rule fires on a minimal fixture snippet and stays quiet on the fix.

Fixtures are linted under a path inside ``repro.mining``
(``src/repro/mining/fixture.py``) so path-scoped rules apply; scoping
itself is tested explicitly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import lint_source

# A path that makes every path-scoped rule applicable.
SENSITIVE = "src/repro/mining/fixture.py"
# A path outside the packages some rules are scoped to.
INSENSITIVE = "src/repro/datasets/fixture.py"


def rule_ids(source: str, path: str = SENSITIVE):
    return [v.rule_id for v in lint_source(source, path)]


# ----------------------------------------------------------------------
# REPRO103 — nondeterministic sort key
# ----------------------------------------------------------------------
def test_repro103_key_id():
    src = "def f(xs):\n    return sorted(xs, key=id)\n"
    assert "REPRO103" in rule_ids(src)


def test_repro103_lambda_hash():
    src = "def f(xs):\n    xs.sort(key=lambda x: hash(x.label))\n"
    assert "REPRO103" in rule_ids(src)


def test_repro103_canonical_key_is_clean():
    src = "def f(xs):\n    return sorted(xs, key=lambda x: x.key)\n"
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# REPRO111 / REPRO112 — RNG hygiene
# ----------------------------------------------------------------------
def test_repro111_module_level_call():
    src = "import random\n\ndef f(xs):\n    return random.choice(xs)\n"
    assert "REPRO111" in rule_ids(src)


def test_repro111_aliased_import():
    src = "import random as rnd\n\ndef f(xs):\n    rnd.shuffle(xs)\n"
    assert "REPRO111" in rule_ids(src)


def test_repro111_constructing_random_is_clean():
    src = "import random\n\ndef f(seed):\n    return random.Random(seed)\n"
    assert rule_ids(src) == []


def test_repro111_injected_rng_is_clean():
    src = "def f(xs, rng):\n    rng.shuffle(xs)\n    return rng.choice(xs)\n"
    assert rule_ids(src) == []


def test_repro112_from_import():
    src = "from random import shuffle\n"
    assert "REPRO112" in rule_ids(src)


def test_repro112_importing_random_class_is_clean():
    src = "from random import Random\n"
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# REPRO121 — broad except
# ----------------------------------------------------------------------
def test_repro121_bare_except():
    src = "def f():\n    try:\n        g()\n    except:\n        pass\n"
    assert "REPRO121" in rule_ids(src)


def test_repro121_broad_exception():
    src = "def f():\n    try:\n        g()\n    except Exception:\n        return None\n"
    assert "REPRO121" in rule_ids(src)


def test_repro121_reraise_is_clean():
    src = (
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:\n"
        "        cleanup()\n"
        "        raise\n"
    )
    assert rule_ids(src) == []


def test_repro121_narrow_catch_is_clean():
    src = "def f():\n    try:\n        g()\n    except KeyError:\n        return None\n"
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# REPRO122 — stray print
# ----------------------------------------------------------------------
def test_repro122_print_in_library_code():
    src = "def f(x):\n    print(x)\n"
    assert "REPRO122" in rule_ids(src, INSENSITIVE)


@pytest.mark.parametrize(
    "path",
    [
        "src/repro/cli/run.py",
        "src/repro/bench/report.py",
        "src/repro/analysis/__main__.py",
        "src/repro/__main__.py",
    ],
)
def test_repro122_allowed_surfaces(path):
    src = "def f(x):\n    print(x)\n"
    assert "REPRO122" not in rule_ids(src, path)


# ----------------------------------------------------------------------
# REPRO123 — mutating an index-owned graph
# ----------------------------------------------------------------------
def test_repro123_mutating_db_subscript():
    src = "def f(db, gid):\n    db[gid].add_edge(0, 1, 'x')\n"
    assert "REPRO123" in rule_ids(src)


def test_repro123_mutating_attribute_database():
    src = "def f(index, gid):\n    index.database[gid].add_vertex('C')\n"
    assert "REPRO123" in rule_ids(src)


def test_repro123_mutating_a_copy_is_clean():
    src = "def f(db, gid):\n    g = db[gid].copy()\n    g.add_edge(0, 1, 'x')\n"
    assert rule_ids(src) == []


def test_repro123_mutating_local_graph_is_clean():
    src = "def f():\n    g = LabeledGraph(['a', 'b'])\n    g.add_edge(0, 1, 1)\n"
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# the real code: seeded bugs the runtime suite does not catch
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[2] / "src"

#: (rule id, module under src/repro, original text, mutated text) — each
#: a one-line bug that gets past the runtime suite, so the rule is its
#: only guard.
SEEDED_BUGS = [
    pytest.param(
        "REPRO103",
        "baselines/gindex.py",
        "by_size = sorted(mined.patterns.values(), key=lambda p: p.size)",
        "by_size = sorted(mined.patterns.values(), key=lambda p: hash(p.key))",
        # gIndex's discriminative selection then visits patterns in an
        # order that changes with PYTHONHASHSEED, and so does its
        # feature set; answers do not.
        id="gindex-selects-features-in-hash-order",
    ),
    pytest.param(
        "REPRO111",
        "graphs/random_subgraph.py",
        "    start = rng.randrange(n)\n",
        "    start = random.randrange(n)\n",
        # random_spanning_tree_edges(graph, rng) then returns a different
        # tree for the same seeded rng.
        id="spanning-tree-starts-from-the-global-rng",
    ),
    pytest.param(
        "REPRO112",
        "graphs/random_subgraph.py",
        "    start = rng.randrange(n)\n",
        "    from random import randrange; start = randrange(n)\n",
        id="spanning-tree-imports-the-global-rng",
    ),
    pytest.param(
        "REPRO121",
        "core/engine.py",
        "    except BudgetExceeded:\n        return None, False\n",
        "    except Exception:\n        return None, False\n",
        # Any error while confirming a cache hit now reads as "budget
        # ran out" and is served as a miss instead of raising.
        id="cache-confirmation-swallows-every-error",
    ),
    pytest.param(
        "REPRO122",
        "core/treepi.py",
        "        return self.run(self.plan(query, token=token), token=token)\n",
        "        plan = self.plan(query, token=token); print(plan.sfq_size)\n"
        "        return self.run(plan, token=token)\n",
        id="query-prints-to-stdout",
    ),
    pytest.param(
        "REPRO123",
        "baselines/graphgrep.py",
        "raw = path_fingerprint(database[gid], config.max_length)",
        "database[gid].add_vertex(0); raw = path_fingerprint(database[gid], config.max_length)",
        # Building the baseline grows every database graph by a vertex.
        id="graphgrep-build-mutates-database-graphs",
    ),
]


@pytest.mark.parametrize("rule_id, module, original, mutated", SEEDED_BUGS)
def test_seeded_bug_is_reported_by_its_rule(rule_id, module, original, mutated):
    """A refactor that moves the site fails the exact-match assertion;
    one that blinds the rule to this shape fails the lint."""
    path = SRC / "repro" / module
    source = path.read_text(encoding="utf-8")
    assert source.count(original) == 1, "mutation site moved; update the fixture"
    before = set(rule_ids(source, str(path)))
    after = set(rule_ids(source.replace(original, mutated), str(path)))
    assert after - before == {rule_id}
