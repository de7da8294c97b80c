"""REPRO2xx — lock-discipline lint for the concurrent serving layer.

PR 2 made the repo genuinely concurrent (:class:`repro.core.engine.QueryEngine`
holds a writer-preferring RW lock plus a stats/cache mutex), and a data
race there does not crash — it silently corrupts answer sets, the one
thing an exact index must never do.  These rules make the lock discipline
*checkable*:

For every class that owns locks, the analyzer

1. finds the **lock fields** (attributes assigned from ``Lock``/
   ``RLock``/``Condition``/``Semaphore`` constructors or anything whose
   constructor name contains "lock", e.g. ``ReadWriteLock`` and
   :class:`repro.analysis.guards.TrackedLock`), plus locks named by
   :func:`repro.analysis.guards.guarded_by` declarations;
2. computes, per statement, the **lexically held** lock set from
   ``with self._lock:`` / ``with self._rw.read_locked():`` /
   ``...write_locked():`` blocks;
3. builds the **per-class call graph** and propagates held sets into
   private helpers: a ``_helper`` only ever called with the mutex held is
   analyzed as holding it (fixpoint over the call graph); ``@guarded_by``
   declarations seed the same entry sets for public methods;
4. **infers guards**: a field mutated inside a lexical ``with self.L``
   block anywhere in the class is *guarded by* ``L`` (evidence-based —
   declarations alone never create guards, so externally-locked classes
   like ``TreePiIndex`` are not misattributed).

It then emits:

* **REPRO201** — a read/write of a guarded field at a point where the
  guard is not held (reads need any mode of an RW lock, writes need the
  write side or an exclusive mutex).  ``__init__`` is exempt (the object
  is not shared yet).
* **REPRO202** — blocking work (pool construction/submits, verification,
  mining/builds, file or socket I/O, sleeps) while holding a writer or
  exclusive lock: every reader stalls behind it.  Calls on the lock
  objects themselves (``cond.wait()``) are exempt.
* **REPRO203** — guarded mutable state escaping its locked region:
  ``return self._cache``-style returns of an in-place-mutated guarded
  object from inside the critical section, or a lock-justified closure
  over guarded state handed to an escape sink (``submit``, ``Thread``,
  a return, a ``self`` attribute).  Once outside, the lock no longer
  means anything.
* **REPRO204** — in a class with a generation counter, storing into a
  ``*cache*`` field with no generation comparison in the same method: a
  result computed against a pre-mutation index must never be cached
  afterwards (the QueryEngine's generation protocol).  Removals
  (``clear``/``pop``) are always safe and exempt.

The analysis is per class and intentionally lexical: aliasing a guarded
field into a local and handing it out defeats it, which is exactly why
REPRO203 flags the *implicit* escapes and leaves deliberate, visible
hand-offs to review.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.rules import FileContext, Rule, register
from repro.analysis.violations import Violation

#: A held lock: ``(field_name, mode)`` with mode exclusive/read/write.
HeldSet = FrozenSet[Tuple[str, str]]

_EMPTY: HeldSet = frozenset()

_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Method names that mutate their receiver in place.  Calling one on a
#: guarded field is a *write* access; anything else is a read.
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "delete",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "put",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Cache-store mutators for REPRO204 (removals are always safe).
_CACHE_STORE_METHODS = frozenset({"add", "append", "insert", "put", "setdefault", "update"})

_BLOCKING_NAME_CALLS = frozenset(
    {"open", "Pool", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)
_BLOCKING_ATTR_CALLS = frozenset(
    {
        "build",
        "is_subgraph_isomorphic",
        "join",
        "map",
        "mine",
        "query",
        "read_bytes",
        "read_text",
        "rebuild",
        "result",
        "sleep",
        "submit",
        "subgraph_monomorphisms",
        "urlopen",
        "verify",
        "verify_candidate",
        "wait",
        "write_bytes",
        "write_text",
    }
)

#: Call names that hand a closure to another thread or a later time.
_ESCAPE_SINKS = frozenset({"Thread", "Timer", "call_later", "defer", "spawn", "submit"})


def _self_attr(node: ast.AST) -> Optional[str]:
    """``F`` when ``node`` is exactly ``self.F``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _names_in(node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _mode_satisfies(held_mode: str, kind: str) -> bool:
    if kind == "read":
        return True
    return held_mode in ("exclusive", "write")


def _satisfied(held: HeldSet, guard: str, kind: str) -> bool:
    return any(
        lock == guard and _mode_satisfies(mode, kind) for lock, mode in held
    )


def _guarded_by_decorators(fn: ast.AST) -> HeldSet:
    """Locks declared held via ``@guarded_by("_lock", mode=...)``."""
    held: Set[Tuple[str, str]] = set()
    for deco in getattr(fn, "decorator_list", []):
        if not isinstance(deco, ast.Call):
            continue
        name = None
        if isinstance(deco.func, ast.Name):
            name = deco.func.id
        elif isinstance(deco.func, ast.Attribute):
            name = deco.func.attr
        if name != "guarded_by":
            continue
        if not deco.args or not isinstance(deco.args[0], ast.Constant):
            continue
        lock = deco.args[0].value
        if not isinstance(lock, str):
            continue
        mode = "exclusive"
        for kw in deco.keywords:
            if (
                kw.arg == "mode"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ):
                mode = kw.value.value
        held.add((lock, mode))
    return frozenset(held)


class _Access:
    """One read/write of ``self.<field>`` at one program point."""

    __slots__ = ("field", "kind", "detail", "node", "held", "method")

    def __init__(
        self,
        field: str,
        kind: str,
        detail: str,
        node: ast.AST,
        held: HeldSet,
        method: str,
    ) -> None:
        self.field = field
        self.kind = kind
        self.detail = detail
        self.node = node
        self.held = held
        self.method = method


class _Closure:
    """A nested def/lambda, with the locks lexically held where defined."""

    __slots__ = ("node", "name", "held", "method", "fields")

    def __init__(
        self, node: ast.AST, name: str, held: HeldSet, method: str
    ) -> None:
        self.node = node
        self.name = name
        self.held = held
        self.method = method
        self.fields = {
            attr
            for n in ast.walk(node)
            for attr in [_self_attr(n)]
            if attr is not None
        }


class _ClassModel:
    """Everything the four REPRO2xx rules need about one class."""

    def __init__(self, ctx: FileContext, classdef: ast.ClassDef) -> None:
        self.ctx = ctx
        self.cls = classdef
        self.methods: Dict[str, ast.AST] = {
            stmt.name: stmt
            for stmt in classdef.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.decorated: Dict[str, HeldSet] = {
            name: _guarded_by_decorators(fn) for name, fn in self.methods.items()
        }
        self.lock_fields = self._find_lock_fields()
        self.accesses: List[_Access] = []
        self.call_sites: List[Tuple[str, str, HeldSet]] = []  # caller, callee, held
        self.returns: List[Tuple[ast.Return, HeldSet, str]] = []
        self.closures: List[_Closure] = []
        self.calls: List[Tuple[ast.Call, HeldSet, str]] = []
        for name, fn in sorted(self.methods.items()):
            body: Sequence[ast.stmt] = getattr(fn, "body", [])
            for stmt in body:
                self._scan(stmt, _EMPTY, name)
        self.entry_held = self._infer_entry_held()
        self.guards = self._infer_guards()
        self.container_like = {
            a.field
            for a in self.accesses
            if a.kind == "write" and a.detail != "assign"
        }
        self.generation_fields = {
            a.field
            for a in self.accesses
            if "generation" in a.field.lower() or a.field.lstrip("_") == "gen"
        }
        self.cache_fields = {
            a.field
            for a in self.accesses
            if "cache" in a.field.lower() and a.field not in self.lock_fields
        }

    # -- discovery -----------------------------------------------------
    def _find_lock_fields(self) -> Set[str]:
        locks: Set[str] = set()
        for fn in self.methods.values():
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                callee = node.value.func
                name = None
                if isinstance(callee, ast.Name):
                    name = callee.id
                elif isinstance(callee, ast.Attribute):
                    name = callee.attr
                if name is None:
                    continue
                if name not in _LOCK_CTORS and "lock" not in name.lower():
                    continue
                for target in node.targets:
                    field = _self_attr(target)
                    if field is not None:
                        locks.add(field)
        for held in self.decorated.values():
            for lock, _ in held:
                locks.add(lock)
        return locks

    def _with_item_locks(self, item: ast.withitem) -> List[Tuple[str, str]]:
        expr = item.context_expr
        field = _self_attr(expr)
        if field is not None and field in self.lock_fields:
            return [(field, "exclusive")]
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            base = _self_attr(expr.func.value)
            if base is not None and base in self.lock_fields:
                meth = expr.func.attr.lower()
                if "write" in meth:
                    return [(base, "write")]
                if "read" in meth:
                    return [(base, "read")]
                return [(base, "exclusive")]
        return []

    # -- the lexical walk ----------------------------------------------
    def _scan(self, node: ast.AST, held: HeldSet, method: str) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[Tuple[str, str]] = []
            for item in node.items:
                self._scan(item.context_expr, held, method)
                if item.optional_vars is not None:
                    self._scan(item.optional_vars, held, method)
                acquired.extend(self._with_item_locks(item))
            inner = held | frozenset(acquired)
            for stmt in node.body:
                self._scan(stmt, inner, method)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            self.closures.append(_Closure(node, name, held, method))
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                self._scan(stmt, held, method)
            return
        if isinstance(node, ast.Return):
            self.returns.append((node, held, method))
        if isinstance(node, ast.Call):
            self.calls.append((node, held, method))
            callee = _self_attr(node.func)
            if callee is not None and callee in self.methods:
                self.call_sites.append((method, callee, held))
        attr = _self_attr(node)
        if (
            attr is not None
            and attr not in self.lock_fields
            and attr not in self.methods
        ):
            kind, detail = self._classify_access(node)
            self.accesses.append(_Access(attr, kind, detail, node, held, method))
        for child in ast.iter_child_nodes(node):
            self._scan(child, held, method)

    def _classify_access(self, node: ast.Attribute) -> Tuple[str, str]:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            return "write", "assign"
        parents = self.ctx.parents
        current: ast.AST = node
        while True:
            parent = parents.get(current)
            if isinstance(parent, ast.Attribute) and parent.value is current:
                if isinstance(parent.ctx, (ast.Store, ast.Del)):
                    return "write", "attr"
                grand = parents.get(parent)
                if isinstance(grand, ast.Call) and grand.func is parent:
                    if parent.attr in _MUTATOR_METHODS:
                        return "write", f"method:{parent.attr}"
                    return "read", f"method:{parent.attr}"
                current = parent
                continue
            if isinstance(parent, ast.Subscript) and parent.value is current:
                if isinstance(parent.ctx, (ast.Store, ast.Del)):
                    return "write", "subscript"
                current = parent
                continue
            if (
                isinstance(parent, ast.Call)
                and current is node
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "setattr"
                and parent.args
                and parent.args[0] is node
            ):
                return "write", "setattr"
            return "read", "load"

    # -- inference -----------------------------------------------------
    def _infer_entry_held(self) -> Dict[str, HeldSet]:
        """Fixpoint: locks guaranteed held when each method is entered.

        Public methods get only their ``@guarded_by`` declarations;
        private helpers additionally inherit the intersection of what
        every internal call site holds.
        """
        entry: Dict[str, HeldSet] = dict(self.decorated)
        sites: Dict[str, List[Tuple[str, HeldSet]]] = {}
        for caller, callee, held in self.call_sites:
            sites.setdefault(callee, []).append((caller, held))
        private = {
            name
            for name in self.methods
            if name.startswith("_") and not name.startswith("__")
        }
        for _ in range(len(self.methods) + 1):
            changed = False
            for name in sorted(private):
                call_ins = sites.get(name)
                if not call_ins:
                    continue
                inherited: Optional[HeldSet] = None
                for caller, held in call_ins:
                    at_site = held | entry.get(caller, _EMPTY)
                    inherited = (
                        at_site if inherited is None else inherited & at_site
                    )
                new = self.decorated.get(name, _EMPTY) | (inherited or _EMPTY)
                if new != entry.get(name, _EMPTY):
                    entry[name] = new
                    changed = True
            if not changed:
                break
        return entry

    def _infer_guards(self) -> Dict[str, str]:
        """field -> lock, from lexically locked mutations (evidence-based)."""
        votes: Dict[str, Dict[str, int]] = {}
        for access in self.accesses:
            if access.kind != "write" or access.method == "__init__":
                continue
            for lock, _mode in access.held:
                per_field = votes.setdefault(access.field, {})
                per_field[lock] = per_field.get(lock, 0) + 1
        guards: Dict[str, str] = {}
        for field, per_lock in votes.items():
            best = sorted(per_lock.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            guards[field] = best[0]
        return guards

    def effective(self, access_held: HeldSet, method: str) -> HeldSet:
        return access_held | self.entry_held.get(method, _EMPTY)

    # -- findings ------------------------------------------------------
    def findings(self) -> Dict[str, List[Tuple[ast.AST, str]]]:
        out: Dict[str, List[Tuple[ast.AST, str]]] = {
            "REPRO201": [],
            "REPRO202": [],
            "REPRO203": [],
            "REPRO204": [],
        }
        cls = self.cls.name
        self._find_unguarded(out["REPRO201"], cls)
        self._find_blocking(out["REPRO202"], cls)
        self._find_escapes(out["REPRO203"], cls)
        self._find_unchecked_cache_stores(out["REPRO204"], cls)
        return out

    def _find_unguarded(
        self, sink: List[Tuple[ast.AST, str]], cls: str
    ) -> None:
        for access in self.accesses:
            if access.method == "__init__":
                continue
            guard = self.guards.get(access.field)
            if guard is None:
                continue
            held = self.effective(access.held, access.method)
            if _satisfied(held, guard, access.kind):
                continue
            sink.append(
                (
                    access.node,
                    f"{access.kind} of {cls}.{access.field} (guarded by "
                    f"{guard!r}) without the lock held; wrap the access in "
                    f"`with self.{guard}` or declare @guarded_by({guard!r})",
                )
            )

    def _find_blocking(
        self, sink: List[Tuple[ast.AST, str]], cls: str
    ) -> None:
        for call, held, method in self.calls:
            effective = self.effective(held, method)
            writer = sorted(
                lock
                for lock, mode in effective
                if mode in ("write", "exclusive")
            )
            if not writer:
                continue
            label = self._blocking_label(call)
            if label is None:
                continue
            sink.append(
                (
                    call,
                    f"blocking call {label}() in {cls}.{method} while holding "
                    f"writer/exclusive lock {writer[0]!r}; every reader stalls "
                    "behind it — do the work outside the critical section",
                )
            )

    def _blocking_label(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id if func.id in _BLOCKING_NAME_CALLS else None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Constant):
                return None  # e.g. " -> ".join(...) — string method, not I/O
            receiver_field = _self_attr(func.value)
            if receiver_field is not None and receiver_field in self.lock_fields:
                return None  # cond.wait()/notify on the lock itself
            if func.attr not in _BLOCKING_ATTR_CALLS:
                return None
            if func.attr == "map":
                hints = {n.lower() for n in _names_in(func.value)}
                if not any("pool" in h or "executor" in h for h in hints):
                    return None
            return func.attr
        return None

    def _find_escapes(
        self, sink: List[Tuple[ast.AST, str]], cls: str
    ) -> None:
        for ret, held, method in self.returns:
            field = _self_attr(ret.value) if ret.value is not None else None
            if field is None:
                continue
            guard = self.guards.get(field)
            if guard is None or field not in self.container_like:
                continue
            effective = self.effective(held, method)
            if any(lock == guard for lock, _ in effective):
                sink.append(
                    (
                        ret,
                        f"guarded mutable {cls}.{field} escapes its locked "
                        "region by return; hand out a snapshot/copy instead",
                    )
                )
        escaped = self._escaped_closures()
        for closure in self.closures:
            if id(closure.node) not in escaped:
                continue
            for field in sorted(closure.fields):
                guard = self.guards.get(field)
                if guard is None or field not in self.container_like:
                    continue
                effective = self.effective(closure.held, closure.method)
                if any(lock == guard for lock, _ in effective):
                    sink.append(
                        (
                            closure.node,
                            f"closure capturing guarded mutable {cls}.{field} "
                            "escapes the locked region "
                            f"(via return/{'/'.join(sorted(_ESCAPE_SINKS))}); "
                            "it will run after the lock is released",
                        )
                    )
                    break

    def _escaped_closures(self) -> Set[int]:
        """ids of closure nodes handed past the end of their region."""
        by_name: Dict[Tuple[str, str], _Closure] = {}
        lambda_ids = set()
        for closure in self.closures:
            if closure.name == "<lambda>":
                lambda_ids.add(id(closure.node))
            else:
                by_name[(closure.method, closure.name)] = closure
        escaped: Set[int] = set()

        def note(value: ast.AST, method: str) -> None:
            if isinstance(value, ast.Lambda) and id(value) in lambda_ids:
                escaped.add(id(value))
            if isinstance(value, ast.Name):
                closure = by_name.get((method, value.id))
                if closure is not None:
                    escaped.add(id(closure.node))

        for ret, _held, method in self.returns:
            if ret.value is not None:
                note(ret.value, method)
        for call, _held, method in self.calls:
            name = None
            if isinstance(call.func, ast.Name):
                name = call.func.id
            elif isinstance(call.func, ast.Attribute):
                name = call.func.attr
            if name not in _ESCAPE_SINKS:
                continue
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                note(arg, method)
        for name, fn in self.methods.items():
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and any(
                    _self_attr(t) is not None for t in node.targets
                ):
                    note(node.value, name)
        return escaped

    def _find_unchecked_cache_stores(
        self, sink: List[Tuple[ast.AST, str]], cls: str
    ) -> None:
        if not self.generation_fields or not self.cache_fields:
            return
        checked_methods = self._generation_checked_methods()
        for access in self.accesses:
            if access.method == "__init__":
                continue
            if access.field not in self.cache_fields or access.kind != "write":
                continue
            is_store = access.detail == "subscript" or (
                access.detail.startswith("method:")
                and access.detail.split(":", 1)[1] in _CACHE_STORE_METHODS
            )
            if not is_store or access.method in checked_methods:
                continue
            sink.append(
                (
                    access.node,
                    f"store into {cls}.{access.field} without a generation "
                    f"check in {access.method}(); compare the generation "
                    "captured before computing against the current one, or "
                    "a result computed against a pre-mutation index gets "
                    "cached as current",
                )
            )

    def _generation_checked_methods(self) -> Set[str]:
        checked: Set[str] = set()
        for name, fn in self.methods.items():
            for node in ast.walk(fn):
                if not isinstance(node, ast.Compare):
                    continue
                for side in [node.left] + list(node.comparators):
                    field = _self_attr(side)
                    if field in self.generation_fields:
                        checked.add(name)
        return checked


def _models(ctx: FileContext) -> List[_ClassModel]:
    cached = getattr(ctx, "_repro2_models", None)
    if cached is None:
        cached = [
            _ClassModel(ctx, node)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        ]
        ctx._repro2_models = cached  # type: ignore[attr-defined]
    return cached


def _file_findings(ctx: FileContext) -> Dict[str, List[Tuple[ast.AST, str]]]:
    cached = getattr(ctx, "_repro2_findings", None)
    if cached is None:
        cached = {
            "REPRO201": [],
            "REPRO202": [],
            "REPRO203": [],
            "REPRO204": [],
        }
        for model in _models(ctx):
            for rule_id, items in model.findings().items():
                cached[rule_id].extend(items)
        ctx._repro2_findings = cached  # type: ignore[attr-defined]
    return cached


class _ConcurrencyRule(Rule):
    """Base for the REPRO2xx family: report one rule's share of the model."""

    def run(self) -> List[Violation]:
        for node, message in _file_findings(self.ctx)[self.rule_id]:
            self.report(node, message)
        return self.violations


@register
class UnguardedSharedState(_ConcurrencyRule):
    """REPRO201: guarded field accessed without its lock."""

    rule_id = "REPRO201"
    name = "unguarded-shared-state"
    rationale = (
        "A field mutated inside `with self._lock` anywhere in a class is "
        "shared mutable state guarded by that lock; touching it elsewhere "
        "without the lock (reads included — torn reads of a cache or "
        "counter are real) is a data race that corrupts answer sets "
        "silently. Hold the guard, or declare the caller's obligation "
        "with @guarded_by."
    )


@register
class BlockingUnderWriteLock(_ConcurrencyRule):
    """REPRO202: blocking work inside a writer/exclusive critical section."""

    rule_id = "REPRO202"
    name = "blocking-under-write-lock"
    rationale = (
        "The writer lock stops every reader; holding it across pool "
        "submits, verification, index builds or file I/O turns a "
        "millisecond swap into a full stall of the serving path (and a "
        "deadlock risk if the blocked work ever needs a lock). Prepare "
        "outside, lock only to swap."
    )


@register
class GuardedStateEscapes(_ConcurrencyRule):
    """REPRO203: guarded mutable state leaks out of the locked region."""

    rule_id = "REPRO203"
    name = "guarded-state-escape"
    rationale = (
        "Returning a lock-guarded container, or shipping a closure over "
        "one to another thread, hands out a reference the lock no longer "
        "protects once the region exits. Return a snapshot/copy; pass "
        "closures only immutable or private data."
    )


@register
class CacheStoreWithoutGenerationCheck(_ConcurrencyRule):
    """REPRO204: cache mutation that skips the generation protocol."""

    rule_id = "REPRO204"
    name = "cache-store-no-generation-check"
    rationale = (
        "In a class that versions its state with a generation counter, "
        "every cache store must prove the result is still current "
        "(compare the generation captured before computing). An "
        "unchecked store races maintenance and pins a stale answer set "
        "in the cache indefinitely."
    )


__all__ = [
    "BlockingUnderWriteLock",
    "CacheStoreWithoutGenerationCheck",
    "GuardedStateEscapes",
    "UnguardedSharedState",
]
