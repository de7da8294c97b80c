"""Code declarations the analyzer reads, and the runtime lock-order tracker.

The static side of concurrency safety lives in
:mod:`repro.analysis.concurrency` (the REPRO2xx lint family); this module
is its runtime half, plus the hot-path marker of the REPRO3xx family:

* :func:`guarded_by` — a declaration decorator.  ``@guarded_by("_lock")``
  on a method states the caller must hold ``self._lock`` for the whole
  call.  The static analyzer reads the declaration (the method body is
  checked as if the lock were held); under ``REPRO_CONTRACTS=1`` the
  decorator also *enforces* it, raising :class:`ContractViolation` when
  the method is entered without the named lock held by the current
  thread.  When the instance has no attribute of that name the check is
  skipped — that is how :class:`~repro.core.treepi.TreePiIndex` methods
  stay usable standalone but become lock-checked once a
  :class:`~repro.core.engine.QueryEngine` attaches its lock.
* :class:`TrackedLock` — a mutex whose acquisitions feed the tracker, a
  drop-in for ``threading.Lock`` used as a context manager.
* :func:`hot_path` — a zero-cost marker for hot functions; the REPRO3xx
  rules (:mod:`repro.analysis.hotpath`) judge what it marks.
* The **lock-order tracker** — a process-wide record of the
  lock-acquisition graph.  Every tracked acquisition made while other
  tracked locks are held adds held→acquiring edges; an edge that closes a
  cycle is a potential deadlock and raises *before* the acquisition
  blocks.  Re-acquiring a non-reentrant lock already held by the same
  thread (guaranteed self-deadlock) is caught the same way.

Tracking is gated on :func:`repro.analysis.contracts.contracts_enabled`
so the hot path pays one predicate call when contracts are off.  Lock
names are class-level (``"QueryEngine._mutex"``), so the acquisition
graph expresses a *discipline* shared by every instance; the per-thread
held list additionally records object identity so :func:`guarded_by` can
check the exact instance's lock.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TypeVar

from repro.analysis.contracts import ContractViolation, contracts_enabled

_F = TypeVar("_F", bound=Callable[..., Any])

#: Acquisition modes.  ``exclusive`` is a plain mutex; ``read``/``write``
#: are the two sides of a readers-writer lock.
_MODES = ("exclusive", "read", "write")


class _HeldLock:
    """One tracked acquisition on one thread's stack."""

    __slots__ = ("key", "name", "mode")

    def __init__(self, key: int, name: str, mode: str) -> None:
        self.key = key
        self.name = name
        self.mode = mode


def _mode_satisfies(held: str, required: str) -> bool:
    if required == "read":
        return True
    return held in ("exclusive", "write")


class _LockOrderTracker:
    """Per-thread held-lock stacks plus the global acquisition graph."""

    def __init__(self) -> None:
        self._local = threading.local()
        # name -> names acquired while it was held.  The graph (and its
        # guard) are meta-state: _graph_lock is deliberately untracked.
        self._graph: Dict[str, Set[str]] = {}
        self._graph_lock = threading.Lock()

    def _held(self) -> List[_HeldLock]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _path(self, source: str, target: str) -> Optional[List[str]]:
        """A source→target path in the acquisition graph, if one exists."""
        stack = [(source, [source])]
        seen = {source}
        while stack:
            node, path = stack.pop()
            if node == target:
                return path
            for succ in sorted(self._graph.get(node, ())):
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    def acquiring(self, lock: object, name: str, mode: str) -> None:
        """Record (and vet) an acquisition *before* it blocks."""
        held = self._held()
        for entry in held:
            if entry.key == id(lock):
                raise ContractViolation(
                    f"lock-order contract: thread re-acquires non-reentrant "
                    f"lock {name!r} already held (mode={entry.mode}); "
                    "guaranteed self-deadlock"
                )
        with self._graph_lock:
            for entry in held:
                if entry.name != name:
                    self._graph.setdefault(entry.name, set()).add(name)
            for entry in held:
                if entry.name == name:
                    continue
                cycle = self._path(name, entry.name)
                if cycle is not None:
                    raise ContractViolation(
                        "lock-order contract: acquiring "
                        f"{name!r} while holding {entry.name!r} closes the "
                        f"cycle {' -> '.join(cycle + [name])}; potential "
                        "deadlock"
                    )
        held.append(_HeldLock(id(lock), name, mode))

    def released(self, lock: object) -> None:
        """Pop the most recent acquisition of ``lock`` (tolerant no-op)."""
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i].key == id(lock):
                del held[i]
                return

    def holds(self, lock: object, required: str = "exclusive") -> bool:
        for entry in self._held():
            if entry.key == id(lock) and _mode_satisfies(entry.mode, required):
                return True
        return False

    def edges(self) -> Dict[str, Tuple[str, ...]]:
        with self._graph_lock:
            return {
                name: tuple(sorted(succs))
                for name, succs in sorted(self._graph.items())
            }

    def reset(self) -> None:
        with self._graph_lock:
            self._graph.clear()


_TRACKER = _LockOrderTracker()


def note_acquire(lock: object, name: str, mode: str = "exclusive") -> None:
    """Hook for lock implementations: call just before blocking to acquire."""
    if contracts_enabled():
        _TRACKER.acquiring(lock, name, mode)


def note_release(lock: object) -> None:
    """Hook for lock implementations: call after releasing.

    Unconditional (not gated on :func:`contracts_enabled`) so toggling
    contracts inside a critical section cannot desynchronize the
    per-thread held stack; popping an untracked lock is a no-op.
    """
    _TRACKER.released(lock)


def lock_is_held(lock: object, mode: str = "exclusive") -> bool:
    """True when the calling thread holds ``lock`` at least at ``mode``."""
    return _TRACKER.holds(lock, mode)


def lock_order_edges() -> Dict[str, Tuple[str, ...]]:
    """Snapshot of the recorded acquisition graph (for tests/diagnostics)."""
    return _TRACKER.edges()


def reset_lock_order() -> None:
    """Forget the recorded acquisition graph (test isolation)."""
    _TRACKER.reset()


def guarded_by(lock_attr: str, mode: str = "exclusive") -> Callable[[_F], _F]:
    """Declare that a method runs with ``self.<lock_attr>`` held.

    The declaration is dual-use:

    * the REPRO2xx static analyzer treats the method body as executing
      with the named lock held at ``mode`` (see REPRO201);
    * under contracts, entering the method on a thread that does not hold
      the (tracked) lock raises :class:`ContractViolation`.

    ``mode`` is ``"exclusive"`` for plain mutexes, ``"read"``/``"write"``
    for the respective side of a readers-writer lock.  Instances without
    the attribute skip the runtime check entirely, so guarded classes
    remain usable outside a locking harness.
    """
    if mode not in _MODES:
        raise ValueError(f"guarded_by mode must be one of {_MODES}, got {mode!r}")

    def decorate(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            if contracts_enabled():
                lock = getattr(self, lock_attr, None)
                if lock is not None and not _TRACKER.holds(lock, mode):
                    raise ContractViolation(
                        f"guard contract: {type(self).__name__}."
                        f"{fn.__name__}() entered without {lock_attr!r} held "
                        f"({mode}); acquire the lock (or route the call "
                        "through the owning engine)"
                    )
            return fn(self, *args, **kwargs)

        wrapper.__guarded_by__ = (lock_attr, mode)  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def hot_path(fn: _F) -> _F:
    """Mark ``fn`` as hot-path code for the REPRO3xx analyzer.

    Runtime no-op (sets ``__repro_hot_path__`` and returns ``fn``
    unchanged — no wrapper, no call overhead).  The static analyzer
    matches the decorator by name, so stacking under ``@staticmethod``
    or over ``@guarded_by`` both work; everything the marked function
    calls in the same file inherits hotness through the call graph.
    """
    setattr(fn, "__repro_hot_path__", True)
    return fn


class TrackedLock:
    """A non-reentrant mutex whose acquisitions feed the order tracker.

    Context-manager drop-in for ``threading.Lock()``; under contracts the
    tracker vets every acquisition (ordering cycles, re-entry) *before*
    blocking, so discipline bugs surface as :class:`ContractViolation`
    instead of a hung test.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self) -> None:
        note_acquire(self, self.name, "exclusive")
        self._lock.acquire()

    def release(self) -> None:
        self._lock.release()
        note_release(self)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()
