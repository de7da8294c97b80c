"""Unit tests for the per-file tables behind the REPRO3xx rules.

:class:`repro.analysis.flow.FileFlow` is exercised directly: call
resolution through the lexical scope chain, the hot set it derives from
``@hot_path`` marks and spine names, in-file recursion, and
closure-aware assignment origins.
"""

from __future__ import annotations

import ast

from repro.analysis.flow import FileFlow
from repro.analysis.guards import hot_path

FIXTURE = "repro/core/fixture.py"


def build(source: str, module_path: str = FIXTURE) -> FileFlow:
    return FileFlow(ast.parse(source), module_path)


def fn(flow: FileFlow, qualname: str):
    for info in flow.functions:
        if info.qualname == qualname:
            return info
    raise AssertionError(
        f"{qualname} not in {[f.qualname for f in flow.functions]}"
    )


# ----------------------------------------------------------------------
# the decorator itself
# ----------------------------------------------------------------------
def test_hot_path_decorator_is_a_runtime_noop():
    @hot_path
    def sample(x):
        return x + 1

    assert sample(1) == 2
    assert sample.__name__ == "sample"
    assert sample.__repro_hot_path__ is True


# ----------------------------------------------------------------------
# call resolution
# ----------------------------------------------------------------------
def test_resolves_module_function_and_self_method():
    flow = build(
        """
def helper(x):
    return x

class Engine:
    def _inner(self, x):
        return helper(x)

    def run(self, x):
        return self._inner(x)
"""
    )
    run = fn(flow, "Engine.run")
    (site,) = run.calls
    assert flow.resolved(run, site) is fn(flow, "Engine._inner")
    inner = fn(flow, "Engine._inner")
    (site,) = inner.calls
    assert flow.resolved(inner, site) is fn(flow, "helper")


def test_resolves_sibling_nested_def_through_enclosing_scope():
    flow = build(
        """
def outer():
    def a():
        return b()

    def b():
        return 1

    return a()
"""
    )
    a = fn(flow, "outer.a")
    (site,) = a.calls
    assert flow.resolved(a, site) is fn(flow, "outer.b")


def test_non_self_attribute_calls_stay_unresolved():
    flow = build(
        """
def run(oracle):
    return oracle.distance(0, 1)
"""
    )
    run = fn(flow, "run")
    (site,) = run.calls
    assert flow.resolved(run, site) is None


# ----------------------------------------------------------------------
# recursion
# ----------------------------------------------------------------------
def test_recursion_counts_as_looping():
    flow = build(
        """
def search(pos):
    if pos == 0:
        return True
    return search(pos - 1)

def ping(n):
    return pong(n - 1) if n else 0

def pong(n):
    return ping(n)

def once(n):
    return search(n)
"""
    )
    assert flow.is_recursive(fn(flow, "search"))
    assert flow.is_recursive(fn(flow, "ping"))
    assert flow.is_recursive(fn(flow, "pong"))
    assert not flow.is_recursive(fn(flow, "once"))


# ----------------------------------------------------------------------
# hot-set propagation
# ----------------------------------------------------------------------
def test_hotness_reaches_callees_and_closures():
    flow = build(
        """
from repro.analysis.guards import hot_path

def cold(x):
    return x

def reached(x):
    return x

@hot_path
def entry(x):
    def closure(y):
        return y

    return reached(closure(x))
"""
    )
    assert fn(flow, "entry") in flow.hot
    assert fn(flow, "entry.closure") in flow.hot
    assert fn(flow, "reached") in flow.hot
    assert fn(flow, "cold") not in flow.hot


def test_spine_names_are_hot_only_under_core():
    src = """
def query(x):
    return x
"""
    hot = build(src, "repro/core/engine.py")
    assert fn(hot, "query") in hot.hot
    cold = build(src, "repro/mining/miner.py")
    assert fn(cold, "query") not in cold.hot


def test_stacked_decorators_still_mark_hot():
    flow = build(
        """
from repro.analysis.guards import hot_path

class P:
    @staticmethod
    @hot_path
    def intersect_many(lists):
        return lists
"""
    )
    assert fn(flow, "P.intersect_many") in flow.hot


# ----------------------------------------------------------------------
# assignment origins
# ----------------------------------------------------------------------
def test_origins_track_container_kinds():
    flow = build(
        """
def run(xs):
    a = []
    b = set(xs)
    c = {x for x in xs}
    d = {}
    e = ""
    return a, b, c, d, e
"""
    )
    run = fn(flow, "run")
    assert run.origin_of("a") == {"list"}
    assert run.origin_of("b") == {"set"}
    assert run.origin_of("c") == {"set"}
    assert run.origin_of("d") == {"dict"}
    assert run.origin_of("e") == {"other"}
    assert run.origin_of("xs") == {"param"}
    assert run.origin_of("missing") is None


def test_origins_are_closure_aware_and_union_rebinds():
    flow = build(
        """
def outer(seed):
    used = set(seed.values())

    def backtrack(x):
        return x in used

    rebound = []
    rebound = sorted(rebound)
    return backtrack
"""
    )
    inner = fn(flow, "outer.backtrack")
    assert inner.origin_of("used") == {"set"}
    outer = fn(flow, "outer")
    assert outer.origin_of("rebound") == {"list"}
