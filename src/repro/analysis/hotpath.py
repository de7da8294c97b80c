"""REPRO3xx — hot-path cost rules.

Verification dominates hard TreePi queries, which is why the storage
layer replaced dict-of-frozensets supports with posting lists and why
the enumerator charges its cancellation token only every 64 steps.
Nothing functional keeps those costs down: a refactor can quietly
re-materialize a support set, probe a list per candidate, or slip an
f-string into the checkpoint window, and every test still passes — the
code is just slower.  These rules check the costs lexically, on the
per-file tables of :mod:`repro.analysis.flow`.

* **REPRO303** — columnar-storage bypass in ``repro.core`` /
  ``repro.baselines``: Python or posting-list materializers over
  ``graph_ids()``.
* **REPRO304** — accidental quadratics in hot functions: membership
  tests against lists in loops, repeated list concatenation,
  containers rebuilt per iteration, per-iteration slicing.
* **REPRO305** — allocation or logging/str-format work lexically inside
  a ``token.charge()`` loop, the enumerator's 64-step checkpoint window.

Hot functions are the ones marked :func:`~repro.analysis.guards.hot_path`,
the ``repro.core`` spine methods, and everything they reach through
in-file calls (nested closures included).  All three rules share one
findings list per file, mirroring the REPRO2xx family's design.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.flow import TOKEN_PARAM_NAMES, FileFlow, FunctionInfo
from repro.analysis.rules import FileContext, Rule, register

__all__ = [
    "ColumnarBypass",
    "HotPathQuadratic",
    "CheckpointWindowWork",
]

Finding = Tuple[str, ast.AST, str]

_LOOP_STMTS = (ast.For, ast.AsyncFor, ast.While)

#: Modules whose query path must stay columnar (REPRO303 scope).
_COLUMNAR_PREFIXES = ("repro/core", "repro/baselines")

_PY_MATERIALIZERS = frozenset({"set", "frozenset", "sorted", "list", "tuple"})

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
    flow = FileFlow(ctx.tree, ctx.module_path)
    hot = [fn for fn in flow.functions if fn in flow.hot]
    findings: List[Finding] = []
    if ctx.module_path.startswith(_COLUMNAR_PREFIXES):
        _columnar_findings(flow.functions, findings)
    _quadratic_findings(flow, hot, findings)
    _checkpoint_window_findings(hot, findings)
    ctx._repro3_findings = findings  # type: ignore[attr-defined]
    return findings


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


def _is_materializer(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _PY_MATERIALIZERS or func.id == "PostingList"
    return isinstance(func, ast.Attribute) and func.attr == "from_sorted"


def _columnar_findings(functions: List[FunctionInfo], out: List[Finding]) -> None:
    for fn in functions:
        fired: List[ast.Call] = []
        for node, _ in fn.owned:
            if not isinstance(node, ast.Call):
                continue
            if _is_materializer(node) and _contains_graph_ids_call(node.args):
                fired.append(node)
        # A wrapper chain like from_sorted(sorted(graph_ids())) is one
        # bypass, not two: keep only the outermost firing call.
        inner: Set[int] = set()
        for call in fired:
            for arg in call.args:
                for sub in ast.walk(arg):
                    inner.add(id(sub))
        for call in fired:
            if id(call) not in inner:
                out.append(
                    (
                        "REPRO303",
                        call,
                        "materializing graph_ids() into a fresh "
                        "container; graph_ids() is already a sorted "
                        "zero-copy PostingList (use universe_posting() "
                        "for the whole database)",
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


def _quadratic_findings(
    flow: FileFlow, hot: List[FunctionInfo], out: List[Finding]
) -> None:
    for fn in hot:
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


def _checkpoint_window_findings(hot: List[FunctionInfo], out: List[Finding]) -> None:
    for fn in hot:
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
class ColumnarBypass(_HotPathRule):
    """REPRO303: query-path code bypasses the columnar storage layer."""

    rule_id = "REPRO303"
    name = "columnar-bypass"
    rationale = (
        "The query path reads supports as zero-copy PostingList columns. "
        "Wrapping graph_ids() into fresh containers rebuilds the "
        "dict-of-frozensets costs the columnar layer removed."
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
        "O(n) membership probe, a copying list concatenation, a "
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
