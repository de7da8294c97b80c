"""Runtime contracts for the paper's structural theorems.

Debug-mode-toggleable assertions that re-verify, with independent
brute-force implementations, the three invariants the whole index stands
on:

* **Theorem 1 (center uniqueness):** the leaf-stripping center of a tree
  equals the set of eccentricity-minimizing vertices and is one vertex
  or one edge — checked by :func:`check_center` via plain BFS.
* **Canonical invariance (Section 4.2.2):** canonical strings/labels are
  unchanged under vertex relabeling — checked by recomputing on seeded
  random permutations (:func:`check_canonical_invariance`,
  :func:`check_graph_canonical_invariance`).
* **σ(s) monotonicity (Eq. 1):** the size-increasing support threshold
  is non-decreasing with σ(1) = 1, the premise of level-wise mining
  completeness — checked by :func:`check_support_monotone`.

Checks are **off by default** (they multiply the cost of hot functions);
enable them with ``REPRO_CONTRACTS=1`` in the environment, with
:func:`enable_contracts`, or scoped with the :func:`contract_scope`
context manager.  Production call sites in :mod:`repro.trees`,
:mod:`repro.graphs.canonical` and :mod:`repro.mining.support` consult
:func:`contracts_enabled` and call the matching check.

The ``verify_*`` helpers take the implementation under test as an
argument, so the test suite can demonstrate that a deliberately broken
center or canonical function is caught.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.exceptions import ReproError

if TYPE_CHECKING:
    from repro.graphs.graph import LabeledGraph

_RELABEL_SEED = 0x5EED


class ContractViolation(ReproError):
    """A runtime contract (paper invariant) failed."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CONTRACTS", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


_state: Dict[str, bool] = {"enabled": _env_enabled()}

#: Re-entrancy guard for the checks themselves.  Thread-LOCAL on purpose:
#: a global flag would make contract gating flicker for *other* threads
#: whenever one thread is inside a check — e.g. a query thread running a
#: canonical re-check would silently disable lock tracking for a
#: concurrent mutator, whose later @guarded_by check then fails.
_local = threading.local()


def _thread_checking() -> bool:
    return getattr(_local, "checking", False)


def contracts_enabled() -> bool:
    """True when wired call sites should run their contract checks.

    Returns False while a check is already running on the *calling
    thread*: the checks recompute canonical forms through the public
    (wired) functions, and the guard keeps that from recursing.
    """
    return _state["enabled"] and not _thread_checking()


def enable_contracts() -> None:
    _state["enabled"] = True


def disable_contracts() -> None:
    _state["enabled"] = False


@contextmanager
def contract_scope(enabled: bool = True) -> Iterator[None]:
    """Scope contract checking: ``with contract_scope(): ...``."""
    previous = _state["enabled"]
    _state["enabled"] = enabled
    try:
        yield
    finally:
        _state["enabled"] = previous


@contextmanager
def _checking() -> Iterator[None]:
    previous = _thread_checking()
    _local.checking = True
    try:
        yield
    finally:
        _local.checking = previous


# ----------------------------------------------------------------------
# Theorem 1 — tree centers
# ----------------------------------------------------------------------

def _bfs_eccentricities(tree: "LabeledGraph") -> List[int]:
    n = tree.num_vertices
    ecc = [0] * n
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = [source]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in tree.neighbors(u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if min(dist) < 0:
            raise ContractViolation("center contract: tree is not connected")
        ecc[source] = max(dist)
    return ecc


def check_center(tree: "LabeledGraph", center: Sequence[int]) -> None:
    """Verify ``center`` against brute-force eccentricities (Theorem 1)."""
    with _checking():
        if tree.num_vertices == 0:
            raise ContractViolation("center contract: empty tree has no center")
        ecc = _bfs_eccentricities(tree)
        best = min(ecc)
        expected = tuple(sorted(v for v in range(len(ecc)) if ecc[v] == best))
        got = tuple(sorted(center))
        if got != expected:
            raise ContractViolation(
                f"center contract: reported center {got} but eccentricity "
                f"minimizers are {expected}"
            )
        if len(expected) not in (1, 2):
            raise ContractViolation(
                f"center contract: Theorem 1 allows one vertex or one edge, "
                f"got {len(expected)} vertices {expected}"
            )
        if len(expected) == 2 and not tree.has_edge(expected[0], expected[1]):
            raise ContractViolation(
                f"center contract: two-vertex center {expected} is not an edge"
            )


def verify_center_function(
    center_fn: Callable[["LabeledGraph"], Sequence[int]],
    tree: "LabeledGraph",
) -> Tuple[int, ...]:
    """Run ``center_fn`` and validate its answer; returns the center."""
    center = tuple(center_fn(tree))
    check_center(tree, center)
    return center


# ----------------------------------------------------------------------
# Section 4.2.2 — canonical-form invariance under relabeling
# ----------------------------------------------------------------------

def _relabelings(
    graph: "LabeledGraph", rounds: int
) -> Iterator["LabeledGraph"]:
    rng = random.Random(_RELABEL_SEED)
    n = graph.num_vertices
    for _ in range(rounds):
        perm = list(range(n))
        rng.shuffle(perm)
        yield graph.relabeled(perm)


def verify_canonical_function(
    canonical_fn: Callable[["LabeledGraph"], str],
    graph: "LabeledGraph",
    rounds: int = 2,
) -> str:
    """Check that ``canonical_fn`` is invariant under vertex relabeling."""
    with _checking():
        base = canonical_fn(graph)
        for relabeled in _relabelings(graph, rounds):
            other = canonical_fn(relabeled)
            if other != base:
                raise ContractViolation(
                    "canonical contract: label changed under relabeling "
                    f"({base!r} != {other!r})"
                )
    return base


def check_canonical_invariance(
    tree: "LabeledGraph", label: str, rounds: int = 2
) -> None:
    """Wired check for :func:`repro.trees.canonical.tree_canonical_string`."""
    from repro.trees.canonical import tree_canonical_string

    with _checking():
        for relabeled in _relabelings(tree, rounds):
            other = tree_canonical_string(relabeled)
            if other != label:
                raise ContractViolation(
                    "canonical contract: tree canonical string changed under "
                    f"relabeling ({label!r} != {other!r})"
                )


def check_graph_canonical_invariance(
    graph: "LabeledGraph", label: str, rounds: int = 1
) -> None:
    """Wired check for :func:`repro.graphs.canonical.canonical_label`."""
    from repro.graphs.canonical import canonical_label

    with _checking():
        for relabeled in _relabelings(graph, rounds):
            other = canonical_label(relabeled)
            if other != label:
                raise ContractViolation(
                    "canonical contract: graph canonical label changed under "
                    f"relabeling ({label!r} != {other!r})"
                )


# ----------------------------------------------------------------------
# Eq. 1 — σ(s) monotonicity
# ----------------------------------------------------------------------

def check_support_monotone(
    support_fn: Callable[[int], float], max_size: int
) -> None:
    """σ(1) = 1 and σ non-decreasing on 1..max_size+1."""
    with _checking():
        first = support_fn(1)
        if first != 1:
            raise ContractViolation(
                f"support contract: σ(1) must be 1 (completeness floor), "
                f"got {first}"
            )
        previous = first
        for size in range(2, max_size + 2):
            value = support_fn(size)
            if value < previous:
                raise ContractViolation(
                    f"support contract: σ({size}) = {value} < "
                    f"σ({size - 1}) = {previous}; σ must be non-decreasing"
                )
            previous = value


# ----------------------------------------------------------------------
# self-test (CLI: python -m repro.analysis contracts)
# ----------------------------------------------------------------------

def self_test() -> List[str]:
    """Run every contract against the production implementations.

    Builds a handful of small trees/graphs, enables contracts, and runs
    the wired functions; returns a line per check for the CLI.  Raises
    :class:`ContractViolation` if anything fails.
    """
    from repro.graphs.builders import path_graph, star_graph
    from repro.graphs.canonical import canonical_label
    from repro.graphs.graph import LabeledGraph
    from repro.mining.support import SupportFunction
    from repro.trees.canonical import tree_canonical_string
    from repro.trees.center import tree_center

    samples = [
        path_graph(["a", "b"]),
        path_graph(["a", "b", "a", "c", "b"]),
        path_graph(["a", "a", "b", "b", "a", "a"]),
        star_graph("hub", ["x", "y", "z", "x"]),
        LabeledGraph(
            ["C", "C", "N", "O", "C"],
            [(0, 1, 1), (1, 2, 1), (1, 3, 2), (3, 4, 1)],
        ),
    ]
    lines: List[str] = []
    with contract_scope():
        for tree in samples:
            verify_center_function(tree_center, tree)
            verify_canonical_function(tree_canonical_string, tree)
            verify_canonical_function(canonical_label, tree)
        lines.append(f"center + canonical contracts OK on {len(samples)} trees")
        cyclic = LabeledGraph(
            ["C", "C", "C", "O"],
            [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)],
        )
        verify_canonical_function(canonical_label, cyclic)
        lines.append("graph canonical contract OK on a cyclic graph")
        sigma = SupportFunction(alpha=2, beta=1.5, eta=6)
        check_support_monotone(sigma, sigma.max_size)
        lines.append("support monotonicity contract OK (alpha=2 beta=1.5 eta=6)")
        lines.append(_lock_order_self_test())
    return lines


def _lock_order_self_test() -> str:
    """Demonstrate the lock-order tracker on a deliberate inversion.

    Acquires two tracked locks A→B, then B→A, and confirms the inverted
    acquisition raises *before* it could deadlock.  Runs inside
    :func:`self_test`'s contract scope; clears the demo edges afterwards.
    """
    # Local import: guards imports this module, so the dependency must
    # stay one-way at import time.
    from repro.analysis.guards import TrackedLock, reset_lock_order

    a = TrackedLock("self_test.A")
    b = TrackedLock("self_test.B")
    try:
        with a:
            with b:
                pass
        try:
            with b:
                with a:
                    pass
        except ContractViolation:
            return "lock-order contract OK (A->B then B->A inversion caught)"
        raise ContractViolation(
            "lock-order contract: inverted acquisition B->A after A->B "
            "was not detected"
        )
    finally:
        reset_lock_order()
