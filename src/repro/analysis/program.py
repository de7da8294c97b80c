"""The project model: one call graph and every fact derived from it.

The degradation-soundness contract the query engine guarantees
(``matches ⊆ exact ⊆ matches ∪ unresolved``) and the cancellation chain
both span ``core/engine.py`` → ``core/treepi.py`` →
``graphs/isomorphism.py``, so checking them needs the real project-wide
call graph.  This module builds it:

* every file is parsed **once** into a shared AST table (the lint
  driver hands the same trees to the per-file rules), and contributes a
  :class:`~repro.analysis.flow.FileFlow` (function table, ownership
  scan, in-file call resolution, token bindings);
* per-module symbol tables: top-level functions, classes (with base
  lists and inferred ``self.<attr>`` types), and import bindings
  (``import m``, ``from m import f``, aliases, and re-export chains
  through package ``__init__`` files);
* cross-module call resolution for bare names (through import
  bindings), ``module.f()`` attribute calls, constructor calls, and
  class-method dispatch — receivers are typed from parameter/variable
  annotations, ``x = ClassName(...)`` assignments, and
  ``self._attr = <typed value>`` patterns, with method lookup walking
  base classes across files;
* the facts every rule family reads: transitive looping, call cycles
  (Tarjan), transitive checkpoints, and two hot sets from one seed set
  (``@hot_path`` marks and ``repro/core`` spine names) — one following
  in-file edges only (REPRO3xx), one following cross-file edges too
  (REPRO4xx).

A standalone single-file lint is a one-module program
(:func:`single_file_program`), so it computes exactly what a
whole-program run computes for that file alone.

Known limits (documented in docs/ANALYSIS.md): dynamic dispatch through
containers of callables, monkey-patching, ``getattr`` calls and
``functools.partial`` are not resolved; an attribute whose inferred
types conflict is treated as untyped.  Resolution is a *best-effort
under-approximation* — an unresolved call contributes no edge.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.analysis.flow import (
    _FUNC_NODES,
    SPINE_FUNCTIONS,
    CallSite,
    FileFlow,
    FunctionInfo,
)
from repro.analysis.rules import _module_path

__all__ = [
    "ClassInfo",
    "ModuleInfo",
    "ProgramModel",
    "build_program",
    "single_file_program",
]

#: Packages whose spine-named functions seed both hot sets.
_HOT_SEED_PREFIXES: Tuple[str, ...] = ("repro/core",)

_ANN_WRAPPERS = frozenset({"Optional", "Final", "ClassVar", "Annotated"})


class Binding(NamedTuple):
    """One imported name: ``symbol`` from dotted ``module`` (or the
    module itself when ``symbol`` is None)."""

    module: str
    symbol: Optional[str]


def _dotted_name(module_path: str) -> str:
    """``repro/core/engine.py`` → ``repro.core.engine``."""
    name = module_path
    if name.endswith(".py"):
        name = name[: -len(".py")]
    name = name.replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def _ann_type_name(expr: Optional[ast.expr]) -> Optional[str]:
    """Terminal class name of an annotation, unwrapping Optional/quotes."""
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            inner = ast.parse(expr.value, mode="eval").body
        except SyntaxError:
            return None
        return _ann_type_name(inner)
    if isinstance(expr, ast.Subscript):
        value = expr.value
        head = value.id if isinstance(value, ast.Name) else (
            value.attr if isinstance(value, ast.Attribute) else None
        )
        if head in _ANN_WRAPPERS:
            return _ann_type_name(expr.slice)
        return None  # containers (List[X], Dict[..]) are not receivers
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        for side in (expr.left, expr.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            return _ann_type_name(side)
        return None
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


class ClassInfo:
    """One class definition with methods, bases, and attribute types."""

    def __init__(self, node: ast.ClassDef, module: "ModuleInfo") -> None:
        self.node = node
        self.name = node.name
        self.module = module
        self.methods: Dict[str, FunctionInfo] = dict(
            module.flow.class_methods.get(node.name, {})
        )
        self.bases: List[ast.expr] = list(node.bases)
        #: ``self.<attr>`` → candidate class-name strings (conflicting
        #: non-None assignments make the attribute untyped).
        self.attr_types: Dict[str, Set[str]] = {}
        self._infer_attr_types()

    def _infer_attr_types(self) -> None:
        for stmt in self.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = _ann_type_name(stmt.annotation)
                if name is not None:
                    self.attr_types.setdefault(stmt.target.id, set()).add(name)
        for method in self.methods.values():
            for node, _stack in method.owned:
                attr: Optional[str] = None
                tname: Optional[str] = None
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and self._is_self_attr(node.targets[0])
                ):
                    attr = node.targets[0].attr  # type: ignore[attr-defined]
                    tname = self._value_type(method, node.value)
                    if tname is None and not self._is_none(node.value):
                        tname = "?"
                elif isinstance(node, ast.AnnAssign) and self._is_self_attr(node.target):
                    attr = node.target.attr  # type: ignore[attr-defined]
                    tname = _ann_type_name(node.annotation)
                if attr is not None and tname is not None:
                    self.attr_types.setdefault(attr, set()).add(tname)

    @staticmethod
    def _is_self_attr(target: ast.expr) -> bool:
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )

    @staticmethod
    def _is_none(value: ast.expr) -> bool:
        return isinstance(value, ast.Constant) and value.value is None

    def _value_type(self, method: FunctionInfo, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Name) and value.id in method.params:
            return _param_annotation_name(method, value.id)
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                return func.id
            if isinstance(func, ast.Attribute):
                return func.attr
        return None


def _param_annotation_name(fn: FunctionInfo, param: str) -> Optional[str]:
    args = fn.node.args  # type: ignore[attr-defined]
    for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if a.arg == param:
            return _ann_type_name(a.annotation)
    return None


class ModuleInfo:
    """One parsed source file with its symbol tables."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module_path = _module_path(path)
        self.name = _dotted_name(self.module_path)
        is_init = self.module_path.endswith("/__init__.py")
        self.package = self.name if is_init else self.name.rpartition(".")[0]
        self.flow = FileFlow(tree, self.module_path)
        self.imports: Dict[str, Binding] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._collect_imports()
        self._collect_classes()
        self._parents: Optional[Dict[int, ast.AST]] = None

    # ------------------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.imports[alias.asname] = Binding(alias.name, None)
                    else:
                        root = alias.name.split(".", 1)[0]
                        self.imports.setdefault(root, Binding(root, None))
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = Binding(
                        base, alias.name
                    )

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = self.package.split(".") if self.package else []
        up = node.level - 1
        if up > len(parts):
            return None
        kept = parts[: len(parts) - up] if up else parts
        base = ".".join(kept)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base or None

    def _collect_classes(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self.classes.setdefault(stmt.name, ClassInfo(stmt, self))

    # ------------------------------------------------------------------
    def parents(self) -> Dict[int, ast.AST]:
        """Child-id → parent map over this module's tree (built lazily)."""
        if self._parents is None:
            table: Dict[int, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    table[id(child)] = parent
            self._parents = table
        return self._parents


_Symbol = Union[FunctionInfo, ClassInfo, ModuleInfo, None]
_EdgeMap = Dict[FunctionInfo, List[FunctionInfo]]


class ProgramModel:
    """The project-wide call graph and the facts derived from it."""

    def __init__(self, entries: Sequence[Tuple[str, str, ast.Module]]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_name: Dict[str, ModuleInfo] = {}
        for path, source, tree in entries:
            info = ModuleInfo(path, source, tree)
            self.modules[path] = info
            self.by_name.setdefault(info.name, info)
        self.owner: Dict[FunctionInfo, ModuleInfo] = {}
        for info in self.modules.values():
            for fn in info.flow.functions:
                self.owner[fn] = info
        self._cross: Dict[int, Optional[FunctionInfo]] = {}
        for info in self.modules.values():
            for fn in info.flow.functions:
                for site in fn.calls:
                    if info.flow.resolved(site) is None:
                        self._cross[id(site)] = self._cross_resolve(info, fn, site)
        self._edges, self._in_file = self._edge_maps()
        self._cycles: Set[FunctionInfo] = self._call_cycles()
        self._loops = self._propagate(
            {fn: bool(fn.own_loops) for fn in self._edges}, self._edges
        )
        self._governed_loops = self._propagate(
            {
                fn: bool(fn.own_loops)
                or any(self._cross_call_loops(site) for site in fn.calls)
                for fn in self._edges
            },
            self._in_file,
        )
        self._checkpoints = self._propagate(
            {
                fn: bool(fn.checkpoint_nodes)
                or any(info.flow.forwards_token(fn, site) for site in fn.calls)
                for fn, info in self.owner.items()
            },
            self._edges,
        )
        seeds = [
            fn
            for fn, info in self.owner.items()
            if fn.marked_hot
            or (
                info.module_path.startswith(_HOT_SEED_PREFIXES)
                and fn.name in SPINE_FUNCTIONS
            )
        ]
        self._hot_in_file: Set[FunctionInfo] = self._reach(seeds, cross_file=False)
        self._hot: Set[FunctionInfo] = self._reach(seeds, cross_file=True)

    # ------------------------------------------------------------------
    # symbol lookup through import bindings and re-export chains
    # ------------------------------------------------------------------
    def _binding_target(
        self, binding: Binding, seen: Set[Tuple[str, str]]
    ) -> _Symbol:
        if binding.symbol is None:
            return self.by_name.get(binding.module)
        full = f"{binding.module}.{binding.symbol}"
        if full in self.by_name:
            return self.by_name[full]
        target = self.by_name.get(binding.module)
        if target is None:
            return None
        return self._lookup(target, binding.symbol, seen)

    def _lookup(
        self,
        module: ModuleInfo,
        name: str,
        seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> _Symbol:
        if seen is None:
            seen = set()
        key = (module.name, name)
        if key in seen:
            return None
        seen.add(key)
        fn = module.flow.module_functions.get(name)
        if fn is not None:
            return fn
        cls = module.classes.get(name)
        if cls is not None:
            return cls
        binding = module.imports.get(name)
        if binding is not None:
            return self._binding_target(binding, seen)
        return None

    def _resolve_class(
        self, module: ModuleInfo, name: Optional[str]
    ) -> Optional[ClassInfo]:
        if name is None or name == "?":
            return None
        found = self._lookup(module, name)
        return found if isinstance(found, ClassInfo) else None

    def _method(
        self, cls: Optional[ClassInfo], name: str, depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Method lookup walking base classes (cross-module)."""
        if cls is None or depth > 8:
            return None
        direct = cls.methods.get(name)
        if direct is not None:
            return direct
        for base in cls.bases:
            base_name = _ann_type_name(base)
            parent = self._resolve_class(cls.module, base_name)
            found = self._method(parent, name, depth + 1)
            if found is not None:
                return found
        return None

    def _as_callable(self, symbol: _Symbol) -> Optional[FunctionInfo]:
        if isinstance(symbol, FunctionInfo):
            return symbol
        if isinstance(symbol, ClassInfo):
            return self._method(symbol, "__init__")
        return None

    def _enclosing_class(
        self, module: ModuleInfo, fn: Optional[FunctionInfo]
    ) -> Optional[ClassInfo]:
        anc = fn
        while anc is not None and anc.class_name is None:
            anc = anc.parent
        if anc is None or anc.class_name is None:
            return None
        return module.classes.get(anc.class_name)

    def _local_type(
        self, module: ModuleInfo, fn: FunctionInfo, name: str
    ) -> Optional[str]:
        """Single inferred class name of a local/parameter, else None."""
        if name in fn.params:
            return _param_annotation_name(fn, name)
        candidates: Set[str] = set()
        for node, _stack in fn.owned:
            value: Optional[ast.expr] = None
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
            ):
                value = node.value
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name
            ):
                ann = _ann_type_name(node.annotation)
                if ann is not None:
                    candidates.add(ann)
                continue
            if value is None:
                continue
            if isinstance(value, ast.Constant) and value.value is None:
                continue
            if isinstance(value, ast.Call):
                func = value.func
                if isinstance(func, ast.Name):
                    candidates.add(func.id)
                elif isinstance(func, ast.Attribute):
                    candidates.add(func.attr)
                else:
                    candidates.add("?")
            else:
                candidates.add("?")
        if len(candidates) == 1:
            return next(iter(candidates))
        return None

    # ------------------------------------------------------------------
    # cross-module call resolution
    # ------------------------------------------------------------------
    def _cross_resolve(
        self, module: ModuleInfo, fn: FunctionInfo, site: CallSite
    ) -> Optional[FunctionInfo]:
        func = site.node.func
        if isinstance(func, ast.Name):
            return self._as_callable(self._lookup(module, func.id))
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        if isinstance(recv, ast.Name):
            if recv.id == "self":
                # In-file resolution already checked the class itself;
                # inherited methods live in base classes, possibly in
                # other files.
                cls = self._enclosing_class(module, fn)
                return self._method(cls, func.attr) if cls is not None else None
            binding = module.imports.get(recv.id)
            if binding is not None:
                target = self._binding_target(binding, set())
                if isinstance(target, ModuleInfo):
                    return self._as_callable(self._lookup(target, func.attr))
            cls = self._resolve_class(module, self._local_type(module, fn, recv.id))
            return self._method(cls, func.attr) if cls is not None else None
        if (
            isinstance(recv, ast.Attribute)
            and isinstance(recv.value, ast.Name)
            and recv.value.id == "self"
        ):
            cls = self._enclosing_class(module, fn)
            if cls is None:
                return None
            names = cls.attr_types.get(recv.attr, set())
            resolved = {
                c
                for c in (self._resolve_class(cls.module, n) for n in names)
                if c is not None
            }
            if len(resolved) == 1:
                return self._method(resolved.pop(), func.attr)
        return None

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    def _edge_maps(self) -> Tuple[_EdgeMap, _EdgeMap]:
        """Every resolved call, and the subset in-file resolution finds."""
        edges: _EdgeMap = {}
        in_file: _EdgeMap = {}
        for info in self.modules.values():
            for fn in info.flow.functions:
                local = [t for t in map(info.flow.resolved, fn.calls) if t is not None]
                cross = [t for t in map(self.cross_resolved, fn.calls) if t is not None]
                in_file[fn] = local
                edges[fn] = local + cross
        return edges, in_file

    @staticmethod
    def _propagate(
        facts: Dict[FunctionInfo, bool], edges: _EdgeMap
    ) -> Dict[FunctionInfo, bool]:
        """Close ``facts`` over ``edges``: a caller of a true function is
        true."""
        changed = True
        while changed:
            changed = False
            for fn, outs in edges.items():
                if not facts[fn] and any(facts[t] for t in outs):
                    facts[fn] = True
                    changed = True
        return facts

    def _call_cycles(self) -> Set[FunctionInfo]:
        """Functions on a call cycle (Tarjan SCC, iterative)."""
        index: Dict[FunctionInfo, int] = {}
        low: Dict[FunctionInfo, int] = {}
        on_stack: Set[FunctionInfo] = set()
        stack: List[FunctionInfo] = []
        counter = 0
        cyclic: Set[FunctionInfo] = set()

        for root in self._edges:
            if root in index:
                continue
            work: List[Tuple[FunctionInfo, int]] = [(root, 0)]
            while work:
                fn, child_idx = work[-1]
                if child_idx == 0:
                    index[fn] = low[fn] = counter
                    counter += 1
                    stack.append(fn)
                    on_stack.add(fn)
                outs = self._edges[fn]
                advanced = False
                while child_idx < len(outs):
                    nxt = outs[child_idx]
                    child_idx += 1
                    if nxt not in index:
                        work[-1] = (fn, child_idx)
                        work.append((nxt, 0))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[fn] = min(low[fn], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[fn])
                if low[fn] == index[fn]:
                    component: List[FunctionInfo] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member is fn:
                            break
                    if len(component) > 1:
                        cyclic.update(component)
                    elif component and component[0] in self._edges[component[0]]:
                        cyclic.add(component[0])
        return cyclic

    def _reach(
        self, seeds: Iterable[FunctionInfo], cross_file: bool
    ) -> Set[FunctionInfo]:
        """``seeds`` plus everything they call or define, transitively.

        Follows in-file call edges and nested closures; with
        ``cross_file`` it also follows the edges only cross-module
        resolution finds.
        """
        reached: Set[FunctionInfo] = set(seeds)
        frontier = list(reached)
        while frontier:
            fn = frontier.pop()
            edges = self._edges if cross_file else self._in_file
            for target in edges[fn] + list(fn.children.values()):
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        return reached

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def flow_for(self, path: str) -> Optional[FileFlow]:
        info = self.modules.get(path)
        return info.flow if info is not None else None

    def module_for(self, path: str) -> Optional[ModuleInfo]:
        return self.modules.get(path)

    def cross_resolved(self, site: CallSite) -> Optional[FunctionInfo]:
        """The cross-module target of an in-file-unresolved call."""
        return self._cross.get(id(site))

    def resolved(self, info: ModuleInfo, site: CallSite) -> Optional[FunctionInfo]:
        """In-file target if any, else the cross-module target."""
        target = info.flow.resolved(site)
        if target is not None:
            return target
        return self._cross.get(id(site))

    def loops(self, fn: FunctionInfo) -> bool:
        """Does ``fn`` loop, recurse, or call something that does?"""
        return self._loops[fn] or fn in self._cycles

    def governed_loops(self, fn: FunctionInfo) -> bool:
        """Does ``fn`` loop where a token can stop it (REPRO301)?

        Like :meth:`loops`, except that a callee in another file counts
        only if it takes a token: a token-less callee elsewhere is
        outside the cancellation discipline, so its loops are not a
        severed chain.
        """
        return self._governed_loops[fn] or fn in self._cycles

    def call_loops(self, info: ModuleInfo, site: CallSite) -> bool:
        """Does this call reach a loop a token can stop?"""
        target = info.flow.resolved(site)
        if target is not None:
            return self.governed_loops(target)
        return self._cross_call_loops(site)

    def _cross_call_loops(self, site: CallSite) -> bool:
        target = self._cross.get(id(site))
        return target is not None and bool(target.token_params) and self.loops(target)

    def is_recursive(self, fn: FunctionInfo) -> bool:
        return fn in self._cycles

    def checkpoints(self, fn: FunctionInfo) -> bool:
        """Does ``fn`` touch or forward a token, or call what does?"""
        return self._checkpoints[fn]

    def is_hot(self, fn: FunctionInfo) -> bool:
        """Reached from a hot seed through any resolved call (REPRO4xx)."""
        return fn in self._hot

    def is_hot_in_file(self, fn: FunctionInfo) -> bool:
        """Reached from a hot seed through in-file calls only (REPRO3xx)."""
        return fn in self._hot_in_file

    def subtree_checkpoints(self, fn: FunctionInfo, root: ast.AST) -> bool:
        """Is there a token checkpoint lexically inside ``root``?

        Counts direct ``token.poll/charge/...`` touches, token-forwarding
        calls, and calls to functions that transitively checkpoint.
        Nested function *definitions* inside ``root`` do not count
        (defining is not calling).
        """
        inside: Set[int] = set()

        def collect(node: ast.AST) -> None:
            inside.add(id(node))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FUNC_NODES + (ast.Lambda,)):
                    continue
                collect(child)

        collect(root)
        if any(id(node) in inside for node in fn.checkpoint_nodes):
            return True
        info = self.owner[fn]
        for site in fn.calls:
            if id(site.node) not in inside:
                continue
            if info.flow.forwards_token(fn, site):
                return True
            target = self.resolved(info, site)
            if target is not None and target is not fn and self.checkpoints(target):
                return True
        return False

    def functions(self) -> Iterable[Tuple[ModuleInfo, FunctionInfo]]:
        for info in self.modules.values():
            for fn in info.flow.functions:
                yield info, fn


def build_program(
    entries: Sequence[Tuple[str, str, Optional[ast.Module]]]
) -> ProgramModel:
    """Build a model from ``(path, source, tree)`` rows.

    Rows whose tree is None (unparseable files) are skipped — the lint
    driver reports those as REPRO001 separately.
    """
    parsed = [(p, s, t) for p, s, t in entries if t is not None]
    return ProgramModel(parsed)


def single_file_program(path: str, source: str, tree: ast.Module) -> ProgramModel:
    """A one-module program, for standalone ``lint_source`` runs."""
    return ProgramModel([(path, source, tree)])
