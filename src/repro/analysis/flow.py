"""Per-file tables behind the analyzer's project call graph.

The REPRO1xx/2xx families are lexical: they judge one statement (or one
class) at a time.  The budget discipline introduced with
:class:`~repro.core.budget.QueryBudget` cannot be checked that way — a
``CancellationToken`` is *threaded*: ``QueryEngine.query`` creates it,
forwards it through ``verify`` and down into the enumerator loops of
:mod:`repro.graphs.isomorphism`, where ``token.charge()`` finally runs
every 64 backtracking steps.  Whether a
given loop is cancellable is a property of the *call graph*, not of any
single line.

:class:`FileFlow` holds what one file contributes to that graph:

* a function table (module functions, methods, nested closures) with
  qualified names and lexical parent links;
* the ownership scan: every node a function owns (nested defs excluded)
  with its enclosing loops, its own loops, calls, checkpoint touches
  and assignment origins;
* in-file call resolution — ``self.m()`` to the owning class's method,
  bare ``f()`` through the lexical scope chain (own nested defs, then
  enclosing functions' nested defs, then module level);
* cancellation-token bindings (parameters named/annotated as tokens,
  locals assigned from ``budget.start()``-style expressions, closure
  captures) and per-call forwarding detection (keyword ``token=`` or a
  positional token name).

Cross-file resolution and every derived fact — loops, call cycles,
checkpoints and the hot sets — live in
:class:`~repro.analysis.program.ProgramModel`; a standalone lint is a
one-module program.

The :func:`hot_path` decorator is the runtime half: a zero-cost marker
that production code puts on its hot functions so the analyzer (and
human readers) know the REPRO304/305 complexity rules apply.
"""

from __future__ import annotations

import ast
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

_F = TypeVar("_F", bound=Callable[..., Any])

#: Serving-layer entry points and spine stages: any function with one of
#: these names defined under ``repro/core`` is hot by inference, without
#: needing the decorator.
SPINE_FUNCTIONS = frozenset(
    {
        "query",
        "query_batch",
        "plan",
        "verify",
        "_execute",
        "_execute_batch",
        "_verify_plans",
    }
)

#: Parameter names that bind a cancellation token.
TOKEN_PARAM_NAMES = frozenset({"token", "cancellation_token"})

#: Attribute accesses on a token that count as a checkpoint.
CHECKPOINT_ATTRS = frozenset({"poll", "charge", "expired_now", "expired"})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def hot_path(fn: _F) -> _F:
    """Mark ``fn`` as hot-path code for the REPRO3xx analyzer.

    Runtime no-op (sets ``__repro_hot_path__`` and returns ``fn``
    unchanged — no wrapper, no call overhead).  The static analyzer
    matches the decorator lexically, so stacking under ``@staticmethod``
    or over ``@guarded_by`` both work; everything the marked function
    calls in the same file inherits hotness through the call graph.
    """
    setattr(fn, "__repro_hot_path__", True)
    return fn


def _decorator_name(dec: ast.expr) -> Optional[str]:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _annotation_is_token(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return "CancellationToken" in annotation.value
    return "CancellationToken" in ast.unparse(annotation)


class CallSite:
    """One call expression owned by a function, with its loop context."""

    __slots__ = ("node", "name", "is_self_method", "loop_stack")

    def __init__(
        self,
        node: ast.Call,
        name: Optional[str],
        is_self_method: bool,
        loop_stack: Tuple[ast.AST, ...],
    ) -> None:
        self.node = node
        self.name = name
        self.is_self_method = is_self_method
        self.loop_stack = loop_stack

    def statement_loops(self) -> Tuple[ast.AST, ...]:
        """Enclosing ``for``/``while`` statements (comprehensions excluded)."""
        return tuple(n for n in self.loop_stack if isinstance(n, _LOOP_NODES))


class FunctionInfo:
    """One function (module-level, method, or nested closure)."""

    def __init__(
        self,
        node: ast.AST,
        parent: Optional["FunctionInfo"],
        class_name: Optional[str],
    ) -> None:
        self.node = node
        self.name: str = node.name  # type: ignore[attr-defined]
        self.parent = parent
        self.class_name = class_name
        self.children: Dict[str, "FunctionInfo"] = {}
        self.params: List[str] = []
        self.token_params: Set[str] = set()
        self.local_tokens: Set[str] = set()
        self.shadow_nodes: List[Tuple[ast.AST, str]] = []
        self.calls: List[CallSite] = []
        self.own_loops: List[ast.AST] = []
        self.checkpoint_nodes: List[ast.AST] = []
        #: every owned node (nested defs excluded) with its loop stack
        self.owned: List[Tuple[ast.AST, Tuple[ast.AST, ...]]] = []
        #: single-name assignment origins: name -> set of kinds seen
        #: ("list", "set", "setcall", "dict", "str", "other")
        self.origins: Dict[str, Set[str]] = {}
        self.marked_hot = any(
            _decorator_name(d) == "hot_path"
            for d in node.decorator_list  # type: ignore[attr-defined]
        )
        self._collect_params()

    # ------------------------------------------------------------------
    def _collect_params(self) -> None:
        args = self.node.args  # type: ignore[attr-defined]
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for a in all_args:
            self.params.append(a.arg)
            if a.arg in TOKEN_PARAM_NAMES or _annotation_is_token(a.annotation):
                self.token_params.add(a.arg)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                self.params.append(extra.arg)

    @property
    def qualname(self) -> str:
        parts: List[str] = [self.name]
        if self.class_name:
            parts.insert(0, self.class_name)
        anc = self.parent
        while anc is not None:
            parts.insert(0, anc.name)
            if anc.class_name:
                parts.insert(0, anc.class_name)
            anc = anc.parent
        return ".".join(parts)

    # ------------------------------------------------------------------
    # scope-chain lookups
    # ------------------------------------------------------------------
    def token_names(self) -> Set[str]:
        """Token bindings visible in this function (closures included)."""
        names = set(self.token_params) | set(self.local_tokens)
        if self.parent is not None:
            names |= self.parent.token_names()
        return names

    def origin_of(self, name: str) -> Optional[Set[str]]:
        """Assignment-origin kinds of ``name``, searching the closure chain."""
        fn: Optional[FunctionInfo] = self
        while fn is not None:
            if name in fn.origins:
                return fn.origins[name]
            if name in fn.params:
                return {"param"}
            fn = fn.parent
        return None

    def owned_of_type(
        self, *types: type
    ) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
        for node, stack in self.owned:
            if isinstance(node, types):
                yield node, stack


def _value_origin(value: ast.expr) -> str:
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return "str"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        builtin = value.func.id
        if builtin in ("list", "sorted"):
            return "list"
        if builtin in ("set", "frozenset"):
            return "setcall"
        if builtin == "dict":
            return "dict"
    return "other"


class FileFlow:
    """What one source file contributes to the program model."""

    def __init__(self, tree: ast.Module, module_path: str) -> None:
        self.module_path = module_path
        self.functions: List[FunctionInfo] = []
        self.module_functions: Dict[str, FunctionInfo] = {}
        self.class_methods: Dict[str, Dict[str, FunctionInfo]] = {}
        self._collect(tree, parent=None, class_name=None)
        for fn in self.functions:
            self._scan(fn)
        self._resolved: Dict[int, Optional[FunctionInfo]] = {}
        for fn in self.functions:
            for site in fn.calls:
                self._resolved[id(site)] = self._resolve(fn, site)

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------
    def _collect(
        self,
        node: ast.AST,
        parent: Optional[FunctionInfo],
        class_name: Optional[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_NODES):
                info = FunctionInfo(child, parent, class_name)
                self.functions.append(info)
                if class_name is not None:
                    self.class_methods.setdefault(class_name, {}).setdefault(
                        info.name, info
                    )
                elif parent is not None:
                    parent.children.setdefault(info.name, info)
                else:
                    self.module_functions.setdefault(info.name, info)
                self._collect(child, parent=info, class_name=None)
            elif isinstance(child, ast.ClassDef):
                self._collect(child, parent=parent, class_name=child.name)
            elif isinstance(child, ast.Lambda):
                continue
            else:
                self._collect(child, parent=parent, class_name=class_name)

    # ------------------------------------------------------------------
    # per-function scan (ownership stops at nested defs/lambdas/classes)
    # ------------------------------------------------------------------
    def _scan(self, fn: FunctionInfo) -> None:
        stack: List[ast.AST] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FUNC_NODES + (ast.Lambda, ast.ClassDef)):
                    continue
                fn.owned.append((child, tuple(stack)))
                self._note(fn, child, stack)
                if isinstance(child, _LOOP_NODES + _COMP_NODES):
                    stack.append(child)
                    walk(child)
                    stack.pop()
                else:
                    walk(child)

        for stmt in fn.node.body:  # type: ignore[attr-defined]
            fn.owned.append((stmt, ()))
            self._note(fn, stmt, stack)
            if isinstance(stmt, _LOOP_NODES):
                stack.append(stmt)
                walk(stmt)
                stack.pop()
            elif not isinstance(stmt, _FUNC_NODES + (ast.ClassDef,)):
                walk(stmt)

    def _note(self, fn: FunctionInfo, node: ast.AST, stack: List[ast.AST]) -> None:
        if isinstance(node, _LOOP_NODES):
            fn.own_loops.append(node)
        elif isinstance(node, ast.Call):
            func = node.func
            name: Optional[str] = None
            is_self = False
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
                is_self = isinstance(func.value, ast.Name) and func.value.id == "self"
            fn.calls.append(CallSite(node, name, is_self, tuple(stack)))
        elif isinstance(node, ast.Assign):
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                self._note_binding(fn, node, node.targets[0].id, node.value)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                self._note_binding(fn, node, node.target.id, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                self._note_binding(fn, node, node.target.id, None)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if (
                node.attr in CHECKPOINT_ATTRS
                and isinstance(node.value, ast.Name)
                and node.value.id in TOKEN_PARAM_NAMES
            ):
                fn.checkpoint_nodes.append(node)

    def _note_binding(
        self,
        fn: FunctionInfo,
        node: ast.AST,
        name: str,
        value: Optional[ast.expr],
    ) -> None:
        if name in TOKEN_PARAM_NAMES:
            if name in fn.token_params:
                fn.shadow_nodes.append((node, name))
            else:
                fn.local_tokens.add(name)
        kind = _value_origin(value) if value is not None else "other"
        fn.origins.setdefault(name, set()).add(kind)

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def _resolve(
        self, fn: FunctionInfo, site: CallSite
    ) -> Optional[FunctionInfo]:
        if site.name is None:
            return None
        if site.is_self_method:
            anc: Optional[FunctionInfo] = fn
            while anc is not None and anc.class_name is None:
                anc = anc.parent
            if anc is not None:
                return self.class_methods.get(anc.class_name, {}).get(site.name)
            return None
        if isinstance(site.node.func, ast.Attribute):
            return None  # non-self attribute receiver: out of scope
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            if site.name in scope.children:
                return scope.children[site.name]
            scope = scope.parent
        return self.module_functions.get(site.name)

    def resolved(self, site: CallSite) -> Optional[FunctionInfo]:
        return self._resolved.get(id(site))

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def forwards_token(self, fn: FunctionInfo, site: CallSite) -> bool:
        """Does this call pass a token binding on (keyword or positional)?"""
        for kw in site.node.keywords:
            if kw.arg in TOKEN_PARAM_NAMES:
                return True
        names = fn.token_names()
        return any(
            isinstance(a, ast.Name) and a.id in names for a in site.node.args
        )
