"""Unit tests for the per-file tables and the facts the model derives.

:class:`repro.analysis.flow.FileFlow` is exercised directly for what a
file contributes: call resolution through the lexical scope chain,
token-forwarding detection (the parameter-forwarding contract: a token
threaded through a helper keeps the chain intact, a dropped token severs
it) and closure-aware assignment origins.  The loop/checkpoint facts and
hot-set propagation live on :class:`repro.analysis.program.ProgramModel`;
those tests build a one-module program, or a two-module one when the
callee lives in another file.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.flow import FileFlow, hot_path
from repro.analysis.program import ProgramModel, build_program

SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURE = "src/repro/core/fixture.py"

#: A looping, token-taking spine callee in a second module.
VERIFICATION = (
    "src/repro/core/verification.py",
    """
def verify_candidate(problem, graph, token=None):
    for node in graph:
        if token is not None:
            token.poll()
    return True
""",
)


def build(source: str, module_path: str = "repro/core/fixture.py") -> FileFlow:
    return FileFlow(ast.parse(source), module_path)


def model(source: str, path: str = FIXTURE, *others) -> ProgramModel:
    """A program of ``source`` at ``path`` plus ``(path, source)`` rows."""
    rows = [(path, source)] + list(others)
    return build_program([(p, s, ast.parse(s)) for p, s in rows])


def fn(flow, qualname: str, path: str = FIXTURE):
    if isinstance(flow, ProgramModel):
        flow = flow.flow_for(path)
    for info in flow.functions:
        if info.qualname == qualname:
            return info
    raise AssertionError(
        f"{qualname} not in {[f.qualname for f in flow.functions]}"
    )


def target(program: ProgramModel, caller, site):
    """The call's resolved target, in this file or another."""
    return program.resolved(program.owner[caller], site)


def call_loops(program: ProgramModel, caller, site) -> bool:
    return program.call_loops(program.owner[caller], site)


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
    assert flow.resolved(site) is fn(flow, "Engine._inner")
    inner = fn(flow, "Engine._inner")
    (site,) = inner.calls
    assert flow.resolved(site) is fn(flow, "helper")


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
    assert flow.resolved(site) is fn(flow, "outer.b")


def test_non_self_attribute_calls_stay_unresolved():
    flow = build(
        """
def run(oracle):
    return oracle.distance(0, 1)
"""
    )
    run = fn(flow, "run")
    (site,) = run.calls
    assert flow.resolved(site) is None


# ----------------------------------------------------------------------
# loop and recursion facts
# ----------------------------------------------------------------------
def test_loops_propagate_through_resolved_calls():
    program = model(
        """
def leaf(xs):
    total = 0
    for x in xs:
        total += x
    return total

def middle(xs):
    return leaf(xs)

def top(xs):
    return middle(xs)

def flat(x):
    return x
"""
    )
    assert program.loops(fn(program, "leaf"))
    assert program.loops(fn(program, "middle"))
    assert program.loops(fn(program, "top"))
    assert not program.loops(fn(program, "flat"))


def test_recursion_counts_as_looping():
    program = model(
        """
def search(pos):
    if pos == 0:
        return True
    return search(pos - 1)
"""
    )
    assert program.is_recursive(fn(program, "search"))
    assert program.loops(fn(program, "search"))


def test_cross_file_token_callee_counts_as_looping():
    program = model(
        """
from repro.core.verification import verify_candidate

def run(problem, graph):
    return verify_candidate(problem, graph)
""",
        FIXTURE,
        VERIFICATION,
    )
    assert program.loops(fn(program, "run"))


# ----------------------------------------------------------------------
# token forwarding (the parameter-forwarding contract)
# ----------------------------------------------------------------------
def test_token_forwarded_through_helper_checkpoints():
    """token → helper → poll(): the whole chain transitively checkpoints."""
    program = model(
        """
def helper(xs, token):
    for x in xs:
        token.poll()

def run(xs, token):
    helper(xs, token)
"""
    )
    flow = program.flow_for(FIXTURE)
    assert program.checkpoints(fn(program, "helper"))
    assert program.checkpoints(fn(program, "run"))
    run = fn(program, "run")
    (site,) = run.calls
    assert flow.forwards_token(run, site)
    assert target(program, run, site).token_params


def test_dropped_token_severs_the_chain():
    """``helper(xs)`` without the token is exactly what REPRO301 flags:
    the callee accepts a token, loops, and the call does not forward one.
    """
    program = model(
        """
def helper(xs, token):
    for x in xs:
        token.poll()

def run(xs, token):
    helper(xs)
"""
    )
    flow = program.flow_for(FIXTURE)
    run = fn(program, "run")
    (site,) = run.calls
    assert not flow.forwards_token(run, site)
    assert target(program, run, site).token_params
    assert call_loops(program, run, site)


def test_keyword_forwarding_counts():
    program = model(
        """
from repro.core.verification import verify_candidate

def run(xs, token):
    verify_candidate(xs, token=token)
""",
        FIXTURE,
        VERIFICATION,
    )
    run = fn(program, "run")
    (site,) = run.calls
    assert program.flow_for(FIXTURE).forwards_token(run, site)
    assert target(program, run, site).token_params  # resolved across files


def test_matcher_wrappers_are_token_accepting_callees():
    """count_embeddings / are_isomorphic / automorphisms joined the
    token-accepting surface when they gained ``token=`` pass-through, so
    a caller that holds a token and drops it is a severed chain on every
    one of them — not just on the raw enumerator.  The callees are the
    real ``repro.graphs.isomorphism`` definitions."""
    isomorphism = SRC / "repro" / "graphs" / "isomorphism.py"
    program = model(
        """
from repro.graphs.isomorphism import are_isomorphic, automorphisms, count_embeddings

def tally(pattern, graphs, token):
    total = 0
    for g in graphs:
        total += count_embeddings(pattern, g, token=token)
        if are_isomorphic(pattern, g):
            total += len(automorphisms(g))
    return total
""",
        FIXTURE,
        ("src/repro/graphs/isomorphism.py", isomorphism.read_text()),
    )
    flow = program.flow_for(FIXTURE)
    tally = fn(program, "tally")
    by_name = {site.name: site for site in tally.calls}
    for name in ("count_embeddings", "are_isomorphic", "automorphisms"):
        callee = target(program, tally, by_name[name])
        assert callee is not None and callee.token_params, name
        assert call_loops(program, tally, by_name[name]), name
    assert flow.forwards_token(tally, by_name["count_embeddings"])
    # The dropped-token calls are exactly what REPRO301 exists to flag.
    assert not flow.forwards_token(tally, by_name["are_isomorphic"])
    assert not flow.forwards_token(tally, by_name["automorphisms"])


def test_closure_captured_token_forwards_positionally():
    program = model(
        """
from repro.core.verification import verify_candidate

def outer(xs, token):
    def inner():
        return verify_candidate(xs, token)

    return inner()
""",
        FIXTURE,
        VERIFICATION,
    )
    inner = fn(program, "outer.inner")
    assert "token" in inner.token_names()
    (site,) = inner.calls
    assert program.flow_for(FIXTURE).forwards_token(inner, site)
    assert target(program, inner, site).token_params


def test_annotation_marks_a_token_parameter():
    flow = build(
        """
def run(xs, deadline: "CancellationToken"):
    for x in xs:
        deadline.poll()
"""
    )
    run = fn(flow, "run")
    assert run.token_params == {"deadline"}


def test_checkpoint_attrs_inside_nested_def_do_not_leak_out():
    program = model(
        """
def run(xs, token):
    def later():
        token.poll()

    total = 0
    for x in xs:
        total += x
    return total
"""
    )
    run = fn(program, "run")
    loop = run.own_loops[0]
    # defining a checkpointing closure is not the same as calling one
    assert not program.subtree_checkpoints(run, loop)


# ----------------------------------------------------------------------
# hot-set propagation
# ----------------------------------------------------------------------
def test_hotness_reaches_callees_and_closures():
    program = model(
        """
from repro.analysis.flow import hot_path

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
    assert program.is_hot_in_file(fn(program, "entry"))
    assert program.is_hot_in_file(fn(program, "entry.closure"))
    assert program.is_hot_in_file(fn(program, "reached"))
    assert not program.is_hot_in_file(fn(program, "cold"))


def test_spine_names_are_hot_only_under_core():
    src = """
def query(x):
    return x
"""
    hot = model(src, "src/repro/core/engine.py")
    assert hot.is_hot_in_file(fn(hot, "query", "src/repro/core/engine.py"))
    cold = model(src, "src/repro/mining/miner.py")
    assert not cold.is_hot_in_file(fn(cold, "query", "src/repro/mining/miner.py"))


def test_stacked_decorators_still_mark_hot():
    program = model(
        """
from repro.analysis.flow import hot_path

class P:
    @staticmethod
    @hot_path
    def intersect_many(lists):
        return lists
"""
    )
    assert program.is_hot_in_file(fn(program, "P.intersect_many"))


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
    assert run.origin_of("b") == {"setcall"}
    assert run.origin_of("c") == {"set"}
    assert run.origin_of("d") == {"dict"}
    assert run.origin_of("e") == {"str"}
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
    assert inner.origin_of("used") == {"setcall"}
    outer = fn(flow, "outer")
    assert outer.origin_of("rebound") == {"list"}
