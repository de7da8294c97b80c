"""Static analysis and runtime contracts for the TreePi reproduction.

TreePi's correctness rests on invariants the test suite can only sample:

* canonical strings (Section 4.2.2) must be stable under vertex
  relabeling — any iteration-order or hash-order dependence silently
  corrupts the feature index;
* tree centers (Theorem 1) are unique up to one edge — a wrong center
  breaks both canonical rooting and the Center Distance Constraint;
* the size-increasing support threshold σ(s) (Eq. 1) must be monotone —
  otherwise level-wise mining is incomplete.

This package enforces those properties two ways:

1. :mod:`repro.analysis.engine` — an AST-based lint framework with
   repo-specific rules (:mod:`repro.analysis.rules`: RNG and API
   hygiene; :mod:`repro.analysis.concurrency`: REPRO2xx concurrency
   safety; :mod:`repro.analysis.hotpath`: REPRO3xx hot-path costs),
   runnable as ``python -m repro.analysis lint src/``.  Violations can
   be suppressed per line with ``# noqa: REPRO1xx``; that is the one
   suppression path.
2. :mod:`repro.analysis.contracts` — debug-toggleable runtime assertions
   wired into :mod:`repro.trees`, :mod:`repro.graphs.canonical` and
   :mod:`repro.mining.support` (enable with ``REPRO_CONTRACTS=1`` or
   :func:`enable_contracts`).

This package re-exports only the runtime halves — contracts, the lock
guards and the :func:`hot_path` marker — so importing the library does
not load the linter; lint callers import :mod:`repro.analysis.engine`.

The lint gate is part of CI: it must exit 0 on the repository, so every
new violation is either fixed or explicitly justified with a ``noqa``.
"""

from __future__ import annotations

from repro.analysis.contracts import (
    ContractViolation,
    contract_scope,
    contracts_enabled,
    disable_contracts,
    enable_contracts,
)
from repro.analysis.guards import (
    TrackedLock,
    guarded_by,
    hot_path,
    lock_is_held,
    lock_order_edges,
    note_acquire,
    note_release,
    reset_lock_order,
)

__all__ = [
    "ContractViolation",
    "TrackedLock",
    "contract_scope",
    "contracts_enabled",
    "disable_contracts",
    "enable_contracts",
    "guarded_by",
    "hot_path",
    "lock_is_held",
    "lock_order_edges",
    "note_acquire",
    "note_release",
    "reset_lock_order",
]
