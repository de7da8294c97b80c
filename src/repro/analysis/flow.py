"""Per-file function tables behind the REPRO3xx hot-path rules.

The REPRO1xx/2xx families are lexical: they judge one statement (or one
class) at a time.  The hot-path rules need one more fact — *which*
functions are hot — and that is a property of the call graph: a
function is hot when it is marked :func:`~repro.analysis.guards.hot_path`,
when it is a serving-spine stage under ``repro/core``, or when a hot
function in the same file calls or defines it.

:class:`FileFlow` holds what one file needs for that:

* a function table (module functions, methods, nested closures) with
  qualified names and lexical parent links;
* the ownership scan: every node a function owns (nested defs excluded)
  with its enclosing loops, its calls and its assignment origins;
* in-file call resolution — ``self.m()`` to the owning class's method,
  bare ``f()`` through the lexical scope chain (own nested defs, then
  enclosing functions' nested defs, then module level);
* the hot set, and whether a function sits on an in-file call cycle.

Calls into other files contribute no edge: every file is judged alone,
so a standalone lint and a whole-tree run agree.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Serving-layer entry points and spine stages: any function with one of
#: these names defined under ``repro/core`` is hot by inference, without
#: needing the decorator.
SPINE_FUNCTIONS = frozenset(
    {
        "query",
        "plan",
        "verify",
        "_execute",
    }
)

#: Names a cancellation token is bound to (REPRO305 finds charge loops
#: by ``token.charge()``).
TOKEN_PARAM_NAMES = frozenset({"token", "cancellation_token"})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _decorator_name(dec: ast.expr) -> Optional[str]:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


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
        args = node.args  # type: ignore[attr-defined]
        self.params: List[str] = [
            a.arg
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ] + [extra.arg for extra in (args.vararg, args.kwarg) if extra is not None]
        self.calls: List[ast.Call] = []
        #: every owned node (nested defs excluded) with its loop stack
        self.owned: List[Tuple[ast.AST, Tuple[ast.AST, ...]]] = []
        #: single-name assignment origins: name -> set of kinds seen
        #: ("list", "set", "dict", "other")
        self.origins: Dict[str, Set[str]] = {}
        self.marked_hot = any(
            _decorator_name(d) == "hot_path"
            for d in node.decorator_list  # type: ignore[attr-defined]
        )

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


def _value_origin(value: ast.expr) -> str:
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        builtin = value.func.id
        if builtin in ("list", "sorted"):
            return "list"
        if builtin in ("set", "frozenset"):
            return "set"
        if builtin == "dict":
            return "dict"
    return "other"


class FileFlow:
    """One source file's functions, in-file call graph and hot set."""

    def __init__(self, tree: ast.Module, module_path: str) -> None:
        self.functions: List[FunctionInfo] = []
        self.module_functions: Dict[str, FunctionInfo] = {}
        self.class_methods: Dict[str, Dict[str, FunctionInfo]] = {}
        self._collect(tree, parent=None, class_name=None)
        for fn in self.functions:
            self._scan(fn)
        self._callees: Dict[FunctionInfo, List[FunctionInfo]] = {
            fn: [t for t in (self.resolved(fn, c) for c in fn.calls) if t is not None]
            for fn in self.functions
        }
        self.hot: Set[FunctionInfo] = self._reach(
            fn
            for fn in self.functions
            if fn.marked_hot
            or (module_path.startswith("repro/core") and fn.name in SPINE_FUNCTIONS)
        )

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
                self._note(fn, child)
                if isinstance(child, _LOOP_NODES + _COMP_NODES):
                    stack.append(child)
                    walk(child)
                    stack.pop()
                else:
                    walk(child)

        for stmt in fn.node.body:  # type: ignore[attr-defined]
            fn.owned.append((stmt, ()))
            self._note(fn, stmt)
            if isinstance(stmt, _LOOP_NODES):
                stack.append(stmt)
                walk(stmt)
                stack.pop()
            elif not isinstance(stmt, _FUNC_NODES + (ast.ClassDef,)):
                walk(stmt)

    @staticmethod
    def _note(fn: FunctionInfo, node: ast.AST) -> None:
        name: Optional[str] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Call):
            fn.calls.append(node)
        elif isinstance(node, ast.Assign):
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                name, value = node.targets[0].id, node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                name, value = node.target.id, node.value
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                name = node.target.id
        if name is not None:
            kind = _value_origin(value) if value is not None else "other"
            fn.origins.setdefault(name, set()).add(kind)

    # ------------------------------------------------------------------
    # in-file call graph
    # ------------------------------------------------------------------
    def resolved(self, fn: FunctionInfo, call: ast.Call) -> Optional[FunctionInfo]:
        """The in-file function ``call`` (owned by ``fn``) runs, if any."""
        func = call.func
        if isinstance(func, ast.Attribute):
            # Only ``self.m()`` resolves; other receivers are untyped.
            if not (isinstance(func.value, ast.Name) and func.value.id == "self"):
                return None
            anc: Optional[FunctionInfo] = fn
            while anc is not None and anc.class_name is None:
                anc = anc.parent
            if anc is None or anc.class_name is None:
                return None
            return self.class_methods.get(anc.class_name, {}).get(func.attr)
        if not isinstance(func, ast.Name):
            return None
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            if func.id in scope.children:
                return scope.children[func.id]
            scope = scope.parent
        return self.module_functions.get(func.id)

    def _reach(self, seeds: Iterable[FunctionInfo]) -> Set[FunctionInfo]:
        """``seeds`` plus everything they call or define, transitively."""
        reached: Set[FunctionInfo] = set(seeds)
        frontier = list(reached)
        while frontier:
            fn = frontier.pop()
            for target in self._callees[fn] + list(fn.children.values()):
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        return reached

    def is_recursive(self, fn: FunctionInfo) -> bool:
        """Is ``fn`` on a cycle of in-file calls?"""
        seen: Set[FunctionInfo] = set()
        frontier = list(self._callees[fn])
        while frontier:
            target = frontier.pop()
            if target is fn:
                return True
            if target not in seen:
                seen.add(target)
                frontier.extend(self._callees[target])
        return False
