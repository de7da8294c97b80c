"""Project model: cross-module resolution, the facts derived from the
call graph, and how the REPRO301/REPRO404 split reads them.

Fixtures are small in-memory module sets handed straight to
:func:`build_program`; paths follow the real tree layout so
``_module_path`` normalization and dotted-name derivation are exercised
(``src/repro/pkg/mod.py`` → ``repro.pkg.mod``).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.engine import lint_paths
from repro.analysis.flow import FileFlow
from repro.analysis.program import build_program


def build(files):
    entries = [(path, src, ast.parse(src)) for path, src in files.items()]
    return build_program(entries)


def fn_of(program, path, name):
    flow = program.flow_for(path)
    if "." in name:
        cls, meth = name.split(".")
        return flow.class_methods[cls][meth]
    return flow.module_functions[name]


def site_named(fn, name):
    return next(s for s in fn.calls if s.name == name)


# ----------------------------------------------------------------------
# cross-module call resolution
# ----------------------------------------------------------------------
def test_from_import_call_resolves_across_files():
    program = build(
        {
            "src/repro/pkg/a.py": "def helper(xs):\n    for x in xs:\n        pass\n",
            "src/repro/pkg/b.py": (
                "from repro.pkg.a import helper\n\n"
                "def caller(xs):\n    return helper(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    target = program.cross_resolved(site_named(caller, "helper"))
    assert target is fn_of(program, "src/repro/pkg/a.py", "helper")


def test_from_import_alias_resolves():
    program = build(
        {
            "src/repro/pkg/a.py": "def helper(xs):\n    return xs\n",
            "src/repro/pkg/b.py": (
                "from repro.pkg.a import helper as h\n\n"
                "def caller(xs):\n    return h(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    target = program.cross_resolved(site_named(caller, "h"))
    assert target is fn_of(program, "src/repro/pkg/a.py", "helper")


def test_module_alias_attribute_call_resolves():
    program = build(
        {
            "src/repro/pkg/a.py": "def helper(xs):\n    return xs\n",
            "src/repro/pkg/b.py": (
                "import repro.pkg.a as worker\n\n"
                "def caller(xs):\n    return worker.helper(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    target = program.cross_resolved(site_named(caller, "helper"))
    assert target is fn_of(program, "src/repro/pkg/a.py", "helper")


def test_constructor_typed_local_resolves_method():
    program = build(
        {
            "src/repro/pkg/a.py": (
                "class Engine:\n"
                "    def run(self, xs):\n"
                "        for x in xs:\n"
                "            pass\n"
            ),
            "src/repro/pkg/b.py": (
                "from repro.pkg.a import Engine\n\n"
                "def caller(xs):\n"
                "    eng = Engine()\n"
                "    return eng.run(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    target = program.cross_resolved(site_named(caller, "run"))
    assert target is fn_of(program, "src/repro/pkg/a.py", "Engine.run")


def test_annotated_parameter_resolves_method():
    program = build(
        {
            "src/repro/pkg/a.py": (
                "class Engine:\n"
                "    def run(self, xs):\n"
                "        return xs\n"
            ),
            "src/repro/pkg/b.py": (
                "from typing import Optional\n"
                "from repro.pkg.a import Engine\n\n"
                "def caller(eng: Optional[Engine], xs):\n"
                "    return eng.run(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    target = program.cross_resolved(site_named(caller, "run"))
    assert target is fn_of(program, "src/repro/pkg/a.py", "Engine.run")


def test_self_attr_type_resolves_method():
    program = build(
        {
            "src/repro/pkg/a.py": (
                "class Engine:\n"
                "    def run(self, xs):\n"
                "        return xs\n"
            ),
            "src/repro/pkg/b.py": (
                "from repro.pkg.a import Engine\n\n"
                "class Tier:\n"
                "    def __init__(self):\n"
                "        self._eng = Engine()\n\n"
                "    def serve(self, xs):\n"
                "        return self._eng.run(xs)\n"
            ),
        }
    )
    serve = fn_of(program, "src/repro/pkg/b.py", "Tier.serve")
    target = program.cross_resolved(site_named(serve, "run"))
    assert target is fn_of(program, "src/repro/pkg/a.py", "Engine.run")


def test_inherited_method_resolves_through_cross_module_base():
    program = build(
        {
            "src/repro/pkg/base.py": (
                "class Base:\n"
                "    def step(self, xs):\n"
                "        for x in xs:\n"
                "            pass\n"
            ),
            "src/repro/pkg/derived.py": (
                "from repro.pkg.base import Base\n\n"
                "class Derived(Base):\n"
                "    def drive(self, xs):\n"
                "        return self.step(xs)\n"
            ),
        }
    )
    drive = fn_of(program, "src/repro/pkg/derived.py", "Derived.drive")
    target = program.cross_resolved(site_named(drive, "step"))
    assert target is fn_of(program, "src/repro/pkg/base.py", "Base.step")


def test_reexport_through_package_init_resolves():
    program = build(
        {
            "src/repro/pkg/__init__.py": "from repro.pkg.a import helper\n",
            "src/repro/pkg/a.py": "def helper(xs):\n    return xs\n",
            "src/repro/pkg/c.py": (
                "from repro.pkg import helper\n\n"
                "def caller(xs):\n    return helper(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/c.py", "caller")
    target = program.cross_resolved(site_named(caller, "helper"))
    assert target is fn_of(program, "src/repro/pkg/a.py", "helper")


def test_relative_import_resolves():
    program = build(
        {
            "src/repro/pkg/a.py": "def helper(xs):\n    return xs\n",
            "src/repro/pkg/b.py": (
                "from .a import helper\n\n"
                "def caller(xs):\n    return helper(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    target = program.cross_resolved(site_named(caller, "helper"))
    assert target is fn_of(program, "src/repro/pkg/a.py", "helper")


def test_unresolvable_dynamic_call_contributes_no_edge():
    program = build(
        {
            "src/repro/pkg/b.py": (
                "def caller(fns, xs):\n"
                "    picked = fns[0]\n"
                "    return picked(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    assert program.cross_resolved(site_named(caller, "picked")) is None


# ----------------------------------------------------------------------
# derived facts
# ----------------------------------------------------------------------
def test_loop_fact_propagates_across_modules():
    program = build(
        {
            "src/repro/pkg/a.py": (
                "def worker(xs):\n    for x in xs:\n        pass\n"
            ),
            "src/repro/pkg/b.py": (
                "from repro.pkg.a import worker\n\n"
                "def caller(xs):\n    return worker(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    worker = fn_of(program, "src/repro/pkg/a.py", "worker")
    assert program.loops(worker)
    assert program.loops(caller)


def test_cross_module_recursion_cycle_detected():
    program = build(
        {
            "src/repro/pkg/a.py": (
                "from repro.pkg.b import pong\n\n"
                "def ping(n):\n    return pong(n - 1)\n"
            ),
            "src/repro/pkg/b.py": (
                "from repro.pkg.a import ping\n\n"
                "def pong(n):\n    return ping(n - 1)\n"
            ),
        }
    )
    ping = fn_of(program, "src/repro/pkg/a.py", "ping")
    pong = fn_of(program, "src/repro/pkg/b.py", "pong")
    assert program.loops(ping)
    assert program.loops(pong)


def test_serving_spine_seeds_global_hot_set():
    program = build(
        {
            "src/repro/core/engine.py": (
                "from repro.graphs.work import scan\n\n"
                "def query(g):\n    return scan(g)\n"
            ),
            "src/repro/graphs/work.py": (
                "def scan(g):\n    for x in g:\n        pass\n"
            ),
        }
    )
    query = fn_of(program, "src/repro/core/engine.py", "query")
    scan = fn_of(program, "src/repro/graphs/work.py", "scan")
    assert program.is_hot(query)
    assert program.is_hot(scan)  # reached from the core spine
    # ... but the in-file REPRO3xx hot set stays scoped to repro/core
    assert program.is_hot_in_file(query)
    assert not program.is_hot_in_file(scan)


_LOOPERS = """\
def cancellable(xs, token=None):
    for x in xs:
        pass

def plain(xs):
    for x in xs:
        pass
"""

_SPINE = """\
from repro.graphs.tier import relay
from repro.graphs.work import {callee}

def query(batches, token=None):
    for xs in batches:
        if token is not None:
            token.poll()
        {callee}(xs)
    return relay(batches, token=token)
"""

_TIER = """\
from repro.graphs.work import {callee}

def relay(batches, token=None):
    return {callee}(batches)
"""


def _token_drop_ids(tmp_path, callee):
    """REPRO3/4 ids for a spine function (hot in its own file) and a
    relay (hot only across files), both calling ``callee`` without
    forwarding their token."""
    root = tmp_path / callee
    (root / "repro" / "core").mkdir(parents=True)
    (root / "repro" / "graphs").mkdir(parents=True)
    (root / "repro" / "core" / "engine.py").write_text(_SPINE.format(callee=callee))
    (root / "repro" / "graphs" / "tier.py").write_text(_TIER.format(callee=callee))
    (root / "repro" / "graphs" / "work.py").write_text(_LOOPERS)
    report = lint_paths([root], select=["REPRO3", "REPRO4"])
    return sorted((Path(v.path).name, v.rule_id) for v in report.violations)


def test_token_less_cross_file_callee_raises_neither_301_nor_404(tmp_path):
    """A cross-file callee that loops but cannot take a token is outside
    the cancellation discipline; the same call into a token-taking
    callee is a drop, reported once by the rule that owns the caller."""
    assert _token_drop_ids(tmp_path, "plain") == []
    assert _token_drop_ids(tmp_path, "cancellable") == [
        ("engine.py", "REPRO301"),
        ("tier.py", "REPRO404"),
    ]


def test_single_parse_is_shared_with_per_file_flow():
    src = "def helper(xs):\n    return xs\n"
    tree = ast.parse(src)
    program = build_program([("src/repro/pkg/a.py", src, tree)])
    flow = program.flow_for("src/repro/pkg/a.py")
    assert isinstance(flow, FileFlow)
    assert program.module_for("src/repro/pkg/a.py").tree is tree
