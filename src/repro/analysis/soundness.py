"""REPRO4xx — exception-flow, resource-safety and degradation-soundness rules.

The query engine's headline contract is the degradation bracket
``matches ⊆ exact ⊆ matches ∪ unresolved``: a failed or timed-out
verification must surface as *unresolved* candidates, never as a
silently smaller answer.  The flows that can break it — a swallowed
verify exception, an executor leaked on a raise path, a ``token=``
dropped at a file boundary — span multiple modules, so these rules run
on the project model (:mod:`repro.analysis.program`); a standalone
single-file lint is a one-module program.

* **REPRO401** — resource leak on exception edges: an executor, file,
  or lock acquired without ``with`` whose release is missing or sits on
  the fall-through path instead of a ``finally``.
* **REPRO402** — exception severs the degradation contract:
  ``ContractViolation`` caught without re-raise (it must *never* be
  degraded away), or a bare/overbroad ``except`` on the query spine
  that neither re-raises nor records the failure for a
  ``complete=False`` result.
* **REPRO403** — unsound failure path: a ``repro/core`` failure
  handler that returns a ``QueryResult`` without contributing the
  failed universe to ``unresolved`` or setting ``degraded_reason``
  (directly or through a one-level helper).
* **REPRO404** — cross-module token-forwarding drop: REPRO301
  generalized through the resolved call graph — a function hot only
  through cross-file edges, holding an in-scope token, calls a
  token-accepting, looping callee, in its own file or another, without
  forwarding it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow import FunctionInfo
from repro.analysis.program import ModuleInfo, ProgramModel
from repro.analysis.rules import FileContext, Rule, register

__all__ = [
    "ResourceLeakOnException",
    "ContractSeveredByException",
    "UnsoundFailurePath",
    "CrossModuleTokenDrop",
]

Finding = Tuple[str, ast.AST, str]

#: Constructors that acquire an owned resource when not used via ``with``.
#: ``mmap`` matches both ``mmap.mmap(...)`` and a bare ``mmap(...)`` —
#: the segment reader holds maps open across calls, so a map acquired
#: and then abandoned on an exception path is a real leak (address
#: space + file reference), same as an unreleased pool or handle.
_RESOURCE_CTORS = frozenset(
    {"ThreadPoolExecutor", "ProcessPoolExecutor", "open", "mmap"}
)
#: Calls that release such a resource.
_CLEANUP_ATTRS = frozenset({"shutdown", "close", "release", "terminate"})
#: Modules whose query spine carries the degradation contract.
_SPINE_PREFIXES: Tuple[str, ...] = ("repro/core",)
#: Overbroad handler types on the spine (REPRO402b).
_BROAD_EXCEPTS = frozenset({"Exception", "BaseException", "ReproError"})
#: Handler types that mark a failure-catching region (REPRO403).
_FAILURE_EXCEPTS = _BROAD_EXCEPTS | frozenset(
    {"TimeoutError", "FuturesTimeout", "BudgetExceeded", "OSError"}
)
_CONTRACT_EXC = "ContractViolation"
#: Handler statements that count as recording a failure for a later
#: degraded merge (mirrors REPRO302's conversion logic).
_RECORD_NODES = (
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


# ----------------------------------------------------------------------
# small AST helpers
# ----------------------------------------------------------------------
def _terminal_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    """Exception type names a handler catches; empty for a bare except."""
    exc = handler.type
    if exc is None:
        return []
    nodes = list(exc.elts) if isinstance(exc, ast.Tuple) else [exc]
    names: List[str] = []
    for node in nodes:
        name = _terminal_name(node)
        if name is not None:
            names.append(name)
    return names


def _has_raise(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


def _handler_records(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, _RECORD_NODES):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                return True
    return False


def _names_under(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _finally_node_ids(fn: FunctionInfo) -> Set[int]:
    """ids of every node lexically inside a ``finally:`` block of ``fn``."""
    protected: Set[int] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Try) and node.finalbody:
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    protected.add(id(sub))
    return protected


def _unsound_ctor(node: ast.AST) -> Optional[ast.Call]:
    """The node itself, when it is a QueryResult(...) lacking soundness kwargs."""
    if (
        isinstance(node, ast.Call)
        and _terminal_name(node.func) == "QueryResult"
        and not _ctor_is_sound(node)
    ):
        return node
    return None


def _ctor_is_sound(call: ast.Call) -> bool:
    """Does a QueryResult(...) carry unresolved= or degraded_reason=?"""
    for kw in call.keywords:
        if kw.arg is None:  # **kwargs: can't see inside, assume sound
            return True
        if kw.arg in ("unresolved", "degraded_reason"):
            return True
    return False


# ----------------------------------------------------------------------
# REPRO401 — resource leak on exception edges
# ----------------------------------------------------------------------
def _resource_findings(
    info: ModuleInfo, fn: FunctionInfo, out: List[Finding]
) -> None:
    escaped: Set[str] = set()
    for node, _stack in fn.owned:
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = getattr(node, "value", None)
            if value is not None:
                escaped |= _names_under(value)
        elif (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
        ):
            escaped |= _names_under(node.value)

    protected = _finally_node_ids(fn)

    def cleanups_on(name: str) -> List[ast.Call]:
        calls: List[ast.Call] = []
        for node, _stack in fn.owned:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CLEANUP_ATTRS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                calls.append(node)
        return calls

    for node, _stack in fn.owned:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            continue
        ctor = _terminal_name(node.value.func)
        if ctor not in _RESOURCE_CTORS:
            continue
        name = node.targets[0].id
        if name in escaped:
            continue  # ownership transferred (returned / stored on self)
        releases = cleanups_on(name)
        if not releases:
            out.append(
                (
                    "REPRO401",
                    node,
                    f"{ctor}() bound to {name!r} in {fn.qualname} is never "
                    "released on any path; use `with` or release it in a "
                    "finally block",
                )
            )
        elif not any(id(call) in protected for call in releases):
            out.append(
                (
                    "REPRO401",
                    node,
                    f"{ctor}() bound to {name!r} in {fn.qualname} is released "
                    "only on the fall-through path; an exception between "
                    "acquire and release leaks it — move the release into "
                    "finally (or use `with`)",
                )
            )

    # lock.acquire() whose matching release sits outside any finally
    acquires: List[Tuple[ast.Call, str]] = []
    releases_by_recv: Dict[str, List[ast.Call]] = {}
    for node, _stack in fn.owned:
        if not (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ):
            continue
        recv = ast.unparse(node.func.value)
        if node.func.attr == "acquire":
            acquires.append((node, recv))
        elif node.func.attr == "release":
            releases_by_recv.setdefault(recv, []).append(node)
    for call, recv in acquires:
        matching = releases_by_recv.get(recv, [])
        if matching and not any(id(r) in protected for r in matching):
            out.append(
                (
                    "REPRO401",
                    call,
                    f"{recv}.acquire() in {fn.qualname} pairs with a release "
                    "outside any finally; an exception in between leaves the "
                    "lock held — use `with` or a try/finally",
                )
            )


# ----------------------------------------------------------------------
# REPRO402 — exception severs the degradation contract
# ----------------------------------------------------------------------
def _contract_findings(
    program: ProgramModel, info: ModuleInfo, fn: FunctionInfo, out: List[Finding]
) -> None:
    on_spine_module = info.module_path.startswith(_SPINE_PREFIXES)
    for node, _stack in fn.owned:
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _handler_names(node)
        if on_spine_module and _CONTRACT_EXC in names and not _has_raise(node):
            out.append(
                (
                    "REPRO402",
                    node,
                    f"{_CONTRACT_EXC} caught in {fn.qualname} without "
                    "re-raise; contract violations are correctness bugs and "
                    "must surface, never degrade into a partial answer",
                )
            )
            continue
        broad = node.type is None or any(n in _BROAD_EXCEPTS for n in names)
        if (
            broad
            and program.is_hot(fn)
            and not _has_raise(node)
            and not _handler_records(node)
        ):
            caught = ", ".join(names) if names else "everything (bare except)"
            out.append(
                (
                    "REPRO402",
                    node,
                    f"overbroad handler ({caught}) on query-spine function "
                    f"{fn.qualname} neither re-raises nor records the "
                    "failure; a swallowed verify error silently "
                    "shrinks the answer instead of degrading it",
                )
            )


# ----------------------------------------------------------------------
# REPRO403 — unsound failure paths
# ----------------------------------------------------------------------
def _failure_handlers(fn: FunctionInfo) -> List[ast.ExceptHandler]:
    handlers: List[ast.ExceptHandler] = []
    for node, _stack in fn.owned:
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _handler_names(node)
        if node.type is None or any(n in _FAILURE_EXCEPTS for n in names):
            handlers.append(node)
    return handlers


def _fn_has_unsound_ctor(fn: FunctionInfo) -> bool:
    return any(_unsound_ctor(node) is not None for node, _stack in fn.owned)


def _unsound_findings(
    program: ProgramModel, info: ModuleInfo, fn: FunctionInfo, out: List[Finding]
) -> None:
    handlers = _failure_handlers(fn)
    if not handlers:
        return
    site_by_call = {id(site.node): site for site in fn.calls}
    for handler in handlers:
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if _unsound_ctor(node) is not None:
                    out.append(
                        (
                            "REPRO403",
                            node,
                            f"failure handler in {fn.qualname} builds a "
                            "QueryResult without unresolved= or "
                            "degraded_reason=; the failed universe must be "
                            "contributed to unresolved so the bracket "
                            "invariant holds",
                        )
                    )
                elif isinstance(node, ast.Return) and isinstance(
                    node.value, ast.Call
                ):
                    site = site_by_call.get(id(node.value))
                    if site is None:
                        continue
                    target = program.resolved(info, site)
                    if target is not None and _fn_has_unsound_ctor(target):
                        out.append(
                            (
                                "REPRO403",
                                node,
                                f"failure handler in {fn.qualname} returns "
                                f"via {target.qualname}, which builds a "
                                "QueryResult without unresolved= or "
                                "degraded_reason=; the failed universe is "
                                "dropped",
                            )
                        )


# ----------------------------------------------------------------------
# REPRO404 — cross-module token-forwarding drops
# ----------------------------------------------------------------------
def _token_drop_findings(
    program: ProgramModel, info: ModuleInfo, fn: FunctionInfo, out: List[Finding]
) -> None:
    # A function hot through in-file edges is REPRO301's: 404 judges
    # every call of the functions that only cross-file edges make hot,
    # in-file callees included, since REPRO301 never sees them.
    if program.is_hot_in_file(fn) or not program.is_hot(fn):
        return
    if not fn.token_names():
        return
    flow = info.flow
    for site in fn.calls:
        local = flow.resolved(site)
        target = local if local is not None else program.cross_resolved(site)
        if target is None or not target.token_params:
            continue
        if not program.loops(target):
            continue
        if flow.forwards_token(fn, site):
            continue
        if local is not None:
            edge, where = "in-file call", info.module_path
        else:
            owner = program.owner.get(target)
            edge = "cross-module call"
            where = owner.module_path if owner is not None else "another module"
        out.append(
            (
                "REPRO404",
                site.node,
                f"{edge} from {fn.qualname} to looping callee "
                f"{target.qualname} ({where}) drops the in-scope "
                "cancellation token; forward token= so the callee's loops "
                "stay cancellable",
            )
        )


# ----------------------------------------------------------------------
# shared per-program computation, cached on the model and the context
# ----------------------------------------------------------------------
def _program_findings(program: ProgramModel) -> Dict[str, List[Finding]]:
    cached = getattr(program, "_repro4_table", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    table: Dict[str, List[Finding]] = {path: [] for path in program.modules}
    for info, fn in program.functions():
        out = table[info.path]
        _resource_findings(info, fn, out)
        _contract_findings(program, info, fn, out)
        if info.module_path.startswith(_SPINE_PREFIXES):
            _unsound_findings(program, info, fn, out)
        _token_drop_findings(program, info, fn, out)
    setattr(program, "_repro4_table", table)
    return table


def _soundness_findings(ctx: FileContext) -> List[Finding]:
    cached = getattr(ctx, "_repro4_findings", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    findings = _program_findings(ctx.program).get(ctx.path, [])
    ctx._repro4_findings = findings  # type: ignore[attr-defined]
    return findings


# ----------------------------------------------------------------------
# rule classes (thin reporters over the shared findings)
# ----------------------------------------------------------------------
class _SoundnessRule(Rule):
    """Report the cached program-wide findings matching this rule."""

    def visit_Module(self, node: ast.Module) -> None:
        for rule_id, where, message in _soundness_findings(self.ctx):
            if rule_id == self.rule_id:
                self.report(where, message)


@register
class ResourceLeakOnException(_SoundnessRule):
    """REPRO401: resource acquired without with/finally on raise paths."""

    rule_id = "REPRO401"
    name = "resource-leak-on-exception"
    rationale = (
        "Executors, files and locks acquired outside `with` must be "
        "released in a finally: any exception between acquire and a "
        "fall-through release leaks threads, fds, or leaves a lock held "
        "— exactly the edges a failing verification worker exercises."
    )


@register
class ContractSeveredByException(_SoundnessRule):
    """REPRO402: exception handling severs the degradation contract."""

    rule_id = "REPRO402"
    name = "contract-severed-by-exception"
    rationale = (
        "ContractViolation is a correctness signal and must re-raise "
        "through every layer; an overbroad except on the query spine "
        "that neither re-raises nor records the failure turns a verify "
        "error into a silently smaller answer, breaking the "
        "matches ⊆ exact ⊆ matches ∪ unresolved bracket."
    )


@register
class UnsoundFailurePath(_SoundnessRule):
    """REPRO403: failure path returns a result without unresolved."""

    rule_id = "REPRO403"
    name = "unsound-failure-path"
    rationale = (
        "A caught verify failure must contribute the failed "
        "universe to unresolved (or set degraded_reason); returning a "
        "bare QueryResult from a failure handler claims completeness "
        "the engine no longer has."
    )


@register
class CrossModuleTokenDrop(_SoundnessRule):
    """REPRO404: token forwarding dropped across a file boundary."""

    rule_id = "REPRO404"
    name = "cross-module-token-drop"
    rationale = (
        "REPRO301 generalized through the resolved project call graph: "
        "functions the query spine reaches across files are hot too, and a "
        "token= they drop, at a module boundary or into a callee in their "
        "own file, makes every loop below it uncancellable — invisible to "
        "the in-file hot set REPRO301 judges."
    )
