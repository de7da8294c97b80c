"""REPRO3xx — hot-path and budget-discipline rules.

Verification dominates hard TreePi queries, which is why the serving
layer threads a :class:`~repro.core.budget.CancellationToken` through
the plan→verify spine and why the storage layer replaced
dict-of-frozensets supports with posting lists.  Nothing lexical keeps
those disciplines true: a refactor can drop the ``token=`` argument from
one call, quietly re-materialize a support set, or slip an f-string into
the 64-step checkpoint window, and every test still passes — the code is
just slower, or uncancellable.  These rules check the disciplines on the
interprocedural model built by :mod:`repro.analysis.flow`.

* **REPRO301** — a hot loop (or call into a looping callee) severs the
  cancellation chain: the token parameter is dropped, shadowed, or not
  forwarded, or a loop that drives a looping callee has no checkpoint.
* **REPRO302** — ``BudgetExceeded`` swallowed without conversion, or a
  result stored into a cache by a function that never looks at
  ``.complete`` (a degraded partial answer must not be cached as full).
* **REPRO303** — columnar-storage bypass in ``repro.core`` /
  ``repro.baselines``: the deprecated ``locations``/``to_mapping()``
  materializers, Python materializers over ``graph_ids()`` or a
  ``universe``, and per-element membership filtering where
  ``PostingList.intersect`` applies.
* **REPRO304** — accidental quadratics in hot functions: membership
  tests against lists in loops, repeated list/str concatenation,
  containers rebuilt per iteration, per-iteration slicing.
* **REPRO305** — allocation or logging/str-format work lexically inside
  a ``token.charge()`` loop, the enumerator's 64-step checkpoint window.

Hot functions are the ones marked :func:`~repro.analysis.flow.hot_path`,
the ``repro.core`` spine methods, and everything they reach through
in-file calls (nested closures included).  All five rules share one
cached model per file, mirroring the REPRO2xx family's design.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.flow import (
    TOKEN_PARAM_NAMES,
    FileFlow,
    FunctionInfo,
)
from repro.analysis.rules import FileContext, Rule, register

__all__ = [
    "HotLoopUncancellable",
    "BudgetSwallowed",
    "ColumnarBypass",
    "HotPathQuadratic",
    "CheckpointWindowWork",
]

Finding = Tuple[str, ast.AST, str]

_LOOP_STMTS = (ast.For, ast.AsyncFor, ast.While)

#: Modules whose query path must stay columnar (REPRO303 scope).
_COLUMNAR_PREFIXES = ("repro/core", "repro/baselines")

_PY_MATERIALIZERS = frozenset({"set", "frozenset", "sorted", "list", "tuple"})
#: Materializers that fire over a ``universe`` argument.  ``frozenset``
#: is exempt: converting a universe into the (frozen) result type once
#: is sanctioned; per-element membership abuse of such a set is still
#: caught by the membership check.
_UNIVERSE_MATERIALIZERS = frozenset({"set", "sorted", "list", "tuple"})

_BUDGET_EXCEPTION = "BudgetExceeded"
_HANDLED_NODES = (
    ast.Raise,
    ast.Return,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Break,
    ast.Continue,
)
_MUTATOR_METHODS = frozenset(
    {"append", "add", "update", "extend", "insert", "setdefault", "discard"}
)
_RESULT_NAMES = frozenset({"result", "results", "res", "outcome"})
#: stored-value positional index per cache-store method
_CACHE_STORE_ARG = {"put": 1, "setdefault": 1, "insert": 1, "add": 0, "append": 0}

_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)


# ----------------------------------------------------------------------
# shared per-file analysis, cached on the FileContext
# ----------------------------------------------------------------------
def _file_findings(ctx: FileContext) -> List[Finding]:
    cached = getattr(ctx, "_repro3_findings", None)
    if cached is not None:
        return cached
    flow = None
    if ctx.program is not None:
        # Whole-program run: reuse the model's per-file flow, whose
        # external surface resolves cross-module calls for real instead
        # of consulting the legacy TOKEN_CALLEES registry.
        flow = ctx.program.flow_for(ctx.path)
    if flow is None:
        flow = FileFlow(ctx.tree, ctx.module_path)
    findings: List[Finding] = []
    _cancellation_findings(flow, findings)
    _budget_swallow_findings(ctx.tree, findings)
    if ctx.module_path.startswith("repro/core"):
        # The complete-flag contract belongs to the serving layer; memo
        # caches in the miner etc. hold no degradable results.
        _budget_cache_findings(flow, findings)
    if ctx.module_path.startswith(_COLUMNAR_PREFIXES):
        _columnar_findings(flow, findings)
    _quadratic_findings(flow, findings)
    _checkpoint_window_findings(flow, findings)
    ctx._repro3_findings = findings  # type: ignore[attr-defined]
    return findings


# ----------------------------------------------------------------------
# REPRO301 — cancellation flow
# ----------------------------------------------------------------------
def _cancellation_findings(flow: FileFlow, out: List[Finding]) -> None:
    for fn in flow.functions:
        if not flow.is_hot(fn):
            continue
        for node, name in fn.shadow_nodes:
            out.append(
                (
                    "REPRO301",
                    node,
                    f"cancellation token parameter {name!r} of {fn.qualname} "
                    "is reassigned; the caller's deadline is silently "
                    "discarded",
                )
            )
        if fn.token_params and flow.transitively_loops(fn):
            read = {
                n.id
                for n in ast.walk(fn.node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for param in sorted(fn.token_params):
                if param not in read:
                    out.append(
                        (
                            "REPRO301",
                            fn.node,
                            f"{fn.qualname} loops but never reads its "
                            f"cancellation token parameter {param!r}; thread "
                            "it into the loops (poll/charge or forward it) "
                            "or drop the parameter",
                        )
                    )
        if not fn.token_names():
            continue
        for site in fn.calls:
            if (
                flow.accepts_token(site)
                and flow.call_loops(site)
                and not flow.forwards_token(fn, site)
            ):
                out.append(
                    (
                        "REPRO301",
                        site.node,
                        f"call to looping callee {site.name!r} from "
                        f"{fn.qualname} does not forward the in-scope "
                        "cancellation token; pass token= so the callee's "
                        "loops stay cancellable",
                    )
                )
        for loop in fn.own_loops:
            drives_looping_callee = any(
                any(enclosing is loop for enclosing in site.statement_loops())
                and flow.call_loops(site)
                for site in fn.calls
            )
            if drives_looping_callee and not flow.subtree_checkpoints(fn, loop):
                out.append(
                    (
                        "REPRO301",
                        loop,
                        f"loop in {fn.qualname} drives a looping callee with "
                        "no CancellationToken checkpoint on any path; "
                        "poll/charge the token in the loop or forward it "
                        "into the callee",
                    )
                )


# ----------------------------------------------------------------------
# REPRO302 — budget discipline
# ----------------------------------------------------------------------
def _catches_budget(handler: ast.ExceptHandler) -> bool:
    exc = handler.type
    if exc is None:
        return False
    candidates = list(exc.elts) if isinstance(exc, ast.Tuple) else [exc]
    for node in candidates:
        if isinstance(node, ast.Name) and node.id == _BUDGET_EXCEPTION:
            return True
        if isinstance(node, ast.Attribute) and node.attr == _BUDGET_EXCEPTION:
            return True
    return False


def _handler_converts(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, _HANDLED_NODES):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                return True
    return False


def _budget_swallow_findings(tree: ast.Module, out: List[Finding]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if _catches_budget(node) and not _handler_converts(node):
            out.append(
                (
                    "REPRO302",
                    node,
                    "BudgetExceeded caught and swallowed; re-raise it or "
                    "convert to a degraded (complete=False) result so the "
                    "caller can tell the answer is partial",
                )
            )


def _is_cache_receiver(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return "cache" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "cache" in expr.attr.lower()
    return False


def _is_result_name(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Name) and (
        expr.id.lower() in _RESULT_NAMES or expr.id.lower().endswith("_result")
    )


def _budget_cache_findings(flow: FileFlow, out: List[Finding]) -> None:
    message = (
        "result stored into a cache by a function that never checks "
        ".complete; a degraded partial answer must not be cached as a "
        "full one"
    )
    for fn in flow.functions:
        reads_complete = any(
            isinstance(node, ast.Attribute) and node.attr == "complete"
            for node, _ in fn.owned
        )
        if reads_complete:
            continue
        for node, _ in fn.owned:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Subscript)
                and _is_cache_receiver(node.targets[0].value)
                and _is_result_name(node.value)
            ):
                out.append(("REPRO302", node, message))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CACHE_STORE_ARG
                and _is_cache_receiver(node.func.value)
            ):
                idx = _CACHE_STORE_ARG[node.func.attr]
                if idx < len(node.args) and _is_result_name(node.args[idx]):
                    out.append(("REPRO302", node, message))


# ----------------------------------------------------------------------
# REPRO303 — columnar-storage bypass
# ----------------------------------------------------------------------
def _contains_graph_ids_call(args: List[ast.expr]) -> bool:
    for arg in args:
        for node in ast.walk(arg):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "graph_ids"
            ):
                return True
    return False


def _materializer_kind(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in _PY_MATERIALIZERS:
            return "py"
        if func.id == "PostingList":
            return "posting"
    if isinstance(func, ast.Attribute) and func.attr == "from_sorted":
        return "posting"
    return None


def _columnar_findings(flow: FileFlow, out: List[Finding]) -> None:
    for fn in flow.functions:
        fired: List[Tuple[ast.Call, str]] = []
        for node, _ in fn.owned:
            if fn.name != "locations" and isinstance(node, ast.Attribute):
                if node.attr == "locations" and isinstance(node.ctx, ast.Load):
                    out.append(
                        (
                            "REPRO303",
                            node,
                            "the .locations compat property materializes the "
                            "whole occurrence table; use "
                            "store.graph_ids()/centers_in(gid) columnar reads",
                        )
                    )
            if fn.name != "locations" and isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "to_mapping"
                ):
                    out.append(
                        (
                            "REPRO303",
                            node,
                            "to_mapping() materializes the whole occurrence "
                            "table (debug/compat only); use columnar reads "
                            "on the hot path",
                        )
                    )
            if isinstance(node, ast.Call):
                kind = _materializer_kind(node)
                if kind is None:
                    continue
                if _contains_graph_ids_call(node.args):
                    fired.append(
                        (
                            node,
                            "materializing graph_ids() into a fresh "
                            "container; graph_ids() is already a sorted "
                            "zero-copy PostingList (use universe_posting() "
                            "for the whole database)",
                        )
                    )
                elif (
                    kind == "py"
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _UNIVERSE_MATERIALIZERS
                    and any(
                        isinstance(a, ast.Name) and a.id == "universe"
                        for a in node.args
                    )
                ):
                    fired.append(
                        (
                            node,
                            "seeding from set(universe)-style "
                            "materialization; intersect against a "
                            "PostingList(universe) column instead",
                        )
                    )
        # A wrapper chain like from_sorted(sorted(graph_ids())) is one
        # bypass, not two: keep only the outermost firing call.
        inner: Set[int] = set()
        for call, _ in fired:
            for arg in call.args:
                for sub in ast.walk(arg):
                    inner.add(id(sub))
        for call, msg in fired:
            if id(call) not in inner:
                out.append(("REPRO303", call, msg))
        _membership_findings(fn, out)


def _membership_findings(fn: FunctionInfo, out: List[Finding]) -> None:
    for node, _ in fn.owned:
        if not isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            continue
        for gen in node.generators:
            for cond in gen.ifs:
                for sub in ast.walk(cond):
                    if not isinstance(sub, ast.Compare):
                        continue
                    for op, comp in zip(sub.ops, sub.comparators):
                        if not isinstance(op, (ast.In, ast.NotIn)):
                            continue
                        if not isinstance(comp, ast.Name):
                            continue
                        kinds = fn.origin_of(comp.id)
                        if kinds is not None and "setcall" in kinds:
                            out.append(
                                (
                                    "REPRO303",
                                    sub,
                                    f"per-element membership against "
                                    f"materialized set {comp.id!r}; "
                                    "PostingList.intersect applies here",
                                )
                            )


# ----------------------------------------------------------------------
# REPRO304 — accidental quadratics in hot functions
# ----------------------------------------------------------------------
def _is_fresh_container(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp, ast.DictComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset", "dict")
    )


def _quadratic_findings(flow: FileFlow, out: List[Finding]) -> None:
    for fn in flow.functions:
        if not flow.is_hot(fn):
            continue
        recursive = flow.is_recursive(fn)
        for node, stack in fn.owned:
            in_loop = bool(stack)
            if isinstance(node, ast.Compare) and in_loop:
                for op, comp in zip(node.ops, node.comparators):
                    if not isinstance(op, (ast.In, ast.NotIn)):
                        continue
                    if isinstance(comp, ast.Name):
                        if fn.origin_of(comp.id) == {"list"}:
                            out.append(
                                (
                                    "REPRO304",
                                    node,
                                    f"membership test against list "
                                    f"{comp.id!r} inside a loop of hot "
                                    f"function {fn.qualname} is O(n) per "
                                    "probe; use a set or a PostingList",
                                )
                            )
                    elif _is_fresh_container(comp):
                        out.append(
                            (
                                "REPRO304",
                                node,
                                f"container rebuilt per iteration for a "
                                f"membership test in hot function "
                                f"{fn.qualname}; hoist it out of the loop",
                            )
                        )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                if (in_loop or recursive) and (
                    isinstance(node.left, ast.List)
                    or isinstance(node.right, ast.List)
                ):
                    where = (
                        "on a recursive path"
                        if recursive and not in_loop
                        else "inside a loop"
                    )
                    out.append(
                        (
                            "REPRO304",
                            node,
                            f"list concatenation {where} of hot function "
                            f"{fn.qualname} copies the whole list each "
                            "time; append/pop (or an explicit stack) is "
                            "O(1) amortized",
                        )
                    )
            elif (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and in_loop
                and isinstance(node.target, ast.Name)
                and fn.origin_of(node.target.id) == {"str"}
            ):
                out.append(
                    (
                        "REPRO304",
                        node,
                        f"repeated str concatenation onto "
                        f"{node.target.id!r} inside a loop of hot function "
                        f"{fn.qualname}; collect parts and join once",
                    )
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                outer = [s for s in stack if isinstance(s, _LOOP_STMTS)]
                if (
                    outer
                    and isinstance(node.iter, ast.Subscript)
                    and isinstance(node.iter.value, ast.Name)
                    and isinstance(node.iter.slice, ast.Slice)
                ):
                    out.append(
                        (
                            "REPRO304",
                            node,
                            f"per-iteration slice of "
                            f"{node.iter.value.id!r} inside a nested loop "
                            f"of hot function {fn.qualname} copies the "
                            "prefix each pass; hoist the slice out of the "
                            "outer loop",
                        )
                    )


# ----------------------------------------------------------------------
# REPRO305 — work inside the checkpoint window
# ----------------------------------------------------------------------
def _receiver_is_logger(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return "log" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "log" in expr.attr.lower()
    return False


def _window_work(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            return "print()"
        if isinstance(func, ast.Name) and func.id == "sorted":
            return "sorted()"
        if isinstance(func, ast.Attribute):
            if func.attr == "format":
                return "str.format()"
            if func.attr in _LOG_METHODS and _receiver_is_logger(func.value):
                return f"logging call .{func.attr}()"
    if isinstance(node, ast.JoinedStr):
        return "f-string formatting"
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
    ):
        return "%-formatting"
    return None


def _checkpoint_window_findings(flow: FileFlow, out: List[Finding]) -> None:
    for fn in flow.functions:
        if not flow.is_hot(fn):
            continue
        charge_loops: Set[int] = set()
        for node, stack in fn.owned:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "charge"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in TOKEN_PARAM_NAMES
            ):
                for loop in stack:
                    if isinstance(loop, _LOOP_STMTS):
                        charge_loops.add(id(loop))
        if not charge_loops:
            continue
        for node, stack in fn.owned:
            if not any(id(loop) in charge_loops for loop in stack):
                continue
            work = _window_work(node)
            if work is not None:
                out.append(
                    (
                        "REPRO305",
                        node,
                        f"{work} inside the token.charge() checkpoint "
                        f"window of hot function {fn.qualname}; the "
                        "enumerator runs this every step — move it outside "
                        "the charging loop",
                    )
                )


# ----------------------------------------------------------------------
# rule classes (thin reporters over the shared findings)
# ----------------------------------------------------------------------
class _HotPathRule(Rule):
    """Report the cached findings matching this rule's id."""

    def visit_Module(self, node: ast.Module) -> None:
        for rule_id, where, message in _file_findings(self.ctx):
            if rule_id == self.rule_id:
                self.report(where, message)


@register
class HotLoopUncancellable(_HotPathRule):
    """REPRO301: a hot loop escapes the cancellation token."""

    rule_id = "REPRO301"
    name = "hot-loop-uncancellable"
    rationale = (
        "QueryBudget deadlines only work if every loop reachable from "
        "QueryEngine.query on the plan->verify spine checkpoints "
        "the CancellationToken. A dropped, shadowed, or unforwarded "
        "token (or a loop driving a looping callee with no "
        "poll/charge on any path) makes the query uncancellable."
    )


@register
class BudgetSwallowed(_HotPathRule):
    """REPRO302: budget exhaustion loses its degraded-result contract."""

    rule_id = "REPRO302"
    name = "budget-swallowed"
    rationale = (
        "BudgetExceeded is the degradation signal: handlers must "
        "re-raise or convert it into a complete=False result, and "
        "partial results must never be cached as full answers. "
        "Swallowing either silently turns a timeout into a wrong answer."
    )


@register
class ColumnarBypass(_HotPathRule):
    """REPRO303: query-path code bypasses the columnar storage layer."""

    rule_id = "REPRO303"
    name = "columnar-bypass"
    rationale = (
        "The query path reads supports as zero-copy PostingList columns. "
        "Touching the deprecated locations/to_mapping() materializers, "
        "wrapping graph_ids() or a universe into fresh Python "
        "containers, or filtering by per-element membership rebuilds "
        "the dict-of-frozensets costs the columnar layer removed."
    )

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return ctx.module_path.startswith(_COLUMNAR_PREFIXES)


@register
class HotPathQuadratic(_HotPathRule):
    """REPRO304: accidental quadratic work in hot functions."""

    rule_id = "REPRO304"
    name = "hot-path-quadratic"
    rationale = (
        "Functions marked @hot_path (or reached from the engine spine) "
        "run per candidate graph inside the verification loops; an "
        "O(n) membership probe, a copying list/str concatenation, a "
        "container rebuilt per iteration, or a per-iteration slice "
        "turns them quadratic exactly where the paper's timings are "
        "measured."
    )


@register
class CheckpointWindowWork(_HotPathRule):
    """REPRO305: avoidable work inside the 64-step checkpoint window."""

    rule_id = "REPRO305"
    name = "checkpoint-window-work"
    rationale = (
        "Loops that call token.charge() are the enumerator's innermost "
        "window, entered every backtracking step between checkpoints. "
        "Logging, str-formatting, print or sorted() there multiplies "
        "the per-step constant the 64-step batching exists to shrink."
    )
