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

1. :mod:`repro.analysis.rules` + :mod:`repro.analysis.engine` — an
   AST-based lint framework with repo-specific rules (determinism, RNG
   hygiene, API hygiene, REPRO2xx concurrency safety, the REPRO3xx
   hot-path/budget family built on the :mod:`repro.analysis.flow`
   interprocedural model, and the REPRO4xx exception-flow soundness
   family built on the :mod:`repro.analysis.program` project model),
   runnable as ``python -m repro.analysis lint src/``.  Violations can
   be suppressed per line with ``# noqa: REPRO1xx``; that is the one
   suppression path.
2. :mod:`repro.analysis.contracts` — debug-toggleable runtime assertions
   wired into :mod:`repro.trees`, :mod:`repro.graphs.canonical` and
   :mod:`repro.mining.support` (enable with ``REPRO_CONTRACTS=1`` or
   :func:`enable_contracts`).

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
from repro.analysis.engine import (
    LintReport,
    lint_file,
    lint_paths,
    lint_source,
    lint_source_full,
)
from repro.analysis.flow import hot_path
from repro.analysis.guards import (
    TrackedLock,
    guarded_by,
    lock_is_held,
    lock_order_edges,
    note_acquire,
    note_release,
    reset_lock_order,
)
from repro.analysis.rules import Rule, all_rules, rule_catalog
from repro.analysis.violations import Violation

__all__ = [
    "ContractViolation",
    "LintReport",
    "Rule",
    "TrackedLock",
    "Violation",
    "all_rules",
    "contract_scope",
    "contracts_enabled",
    "disable_contracts",
    "enable_contracts",
    "guarded_by",
    "hot_path",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_source_full",
    "lock_is_held",
    "lock_order_edges",
    "note_acquire",
    "note_release",
    "reset_lock_order",
    "rule_catalog",
]
