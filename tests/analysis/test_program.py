"""Whole-program model: cross-module resolution, global fixpoints, and
the registry-vs-resolution differential gate.

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

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


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
# global fixpoints
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
    assert program.loops_global(worker)
    assert program.loops_global(caller)


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
    assert program.loops_global(ping)
    assert program.loops_global(pong)


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
    assert program.is_hot_global(query)
    assert program.is_hot_global(scan)  # reached from the core spine
    # ... but the per-file REPRO3xx hot set stays scoped to repro/core
    assert not program.flow_for("src/repro/graphs/work.py").is_hot(scan)


def test_external_info_reports_token_governed_looping_only():
    program = build(
        {
            "src/repro/pkg/a.py": (
                "def cancellable(xs, token=None):\n"
                "    for x in xs:\n"
                "        pass\n\n"
                "def plain(xs):\n"
                "    for x in xs:\n"
                "        pass\n"
            ),
            "src/repro/pkg/b.py": (
                "from repro.pkg.a import cancellable, plain\n\n"
                "def caller(xs, token=None):\n"
                "    cancellable(xs)\n"
                "    plain(xs)\n"
            ),
        }
    )
    caller = fn_of(program, "src/repro/pkg/b.py", "caller")
    info_c = program.external_info(site_named(caller, "cancellable"))
    assert info_c is not None
    assert info_c.accepts_token and info_c.loops
    info_p = program.external_info(site_named(caller, "plain"))
    # loops but cannot be governed by a token: the surface reports no
    # token-relevant looping, matching the legacy registry's scope
    assert info_p is not None
    assert not info_p.accepts_token and not info_p.loops


def test_single_parse_is_shared_with_per_file_flow():
    src = "def helper(xs):\n    return xs\n"
    tree = ast.parse(src)
    program = build_program([("src/repro/pkg/a.py", src, tree)])
    flow = program.flow_for("src/repro/pkg/a.py")
    assert isinstance(flow, FileFlow)
    assert program.module_for("src/repro/pkg/a.py").tree is tree


# ----------------------------------------------------------------------
# the differential gate: deleting the registry changed nothing
# ----------------------------------------------------------------------
def test_resolved_surface_matches_legacy_registry_on_src_tree():
    """REPRO3xx findings on ``src/repro`` are identical whether external
    calls go through the deprecated ``TOKEN_CALLEES`` registry or the
    real cross-module resolution — the registry can be deleted without
    moving the gate."""
    resolved = lint_paths([SRC / "repro"], select=["REPRO3"], whole_program=True)
    legacy = lint_paths([SRC / "repro"], select=["REPRO3"], whole_program=False)
    assert resolved.files_checked == legacy.files_checked

    def key(report):
        return [(v.path, v.line, v.col, v.rule_id, v.message) for v in report.violations]

    assert key(resolved) == key(legacy)
