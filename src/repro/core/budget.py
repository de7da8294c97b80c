"""Per-query deadlines and work budgets — graceful degradation layer.

Verification is an NP-complete subgraph-isomorphism search (Section 5.3),
so a single adversarial query can otherwise hold the engine's read lock
unboundedly; because the RW lock is writer-preferring, one runaway query
plus one waiting writer would freeze the whole engine.  This module
bounds that tail: a :class:`QueryBudget` declares a wall-clock deadline
and/or a verification work cap, and a :class:`CancellationToken` carries
those bounds through planning and verification.  ``TreePiIndex.plan``
polls it after every level of its subtree enumeration and, on expiry,
hands the candidates found so far to verification; ``TreePiIndex.verify``
→ the monomorphism enumerator checks the shared token at bounded
intervals and unwinds cleanly (:class:`~repro.exceptions.BudgetExceeded`)
instead of running forever.

The contract is the one succinct-filter systems rely on: **filters may
loosen, answers never change.**  Expiry during *planning* leaves a
looser candidate set; expiry during *verification* moves the
still-unverified candidates into ``QueryResult.unresolved`` and flags
the result ``complete=False``.  Everything actually reported
in ``matches`` was exactly verified, so

    degraded.matches  ⊆  exact answer  ⊆  degraded.matches ∪ unresolved

always holds.  Degraded results are never cached; retrying with a fresh
budget (or none) recomputes them exactly.

Budget semantics:

* ``None`` for any field means *unbounded* — an all-``None`` budget is a
  no-op and :meth:`QueryBudget.start` returns no token at all, keeping
  the unbudgeted hot path byte-identical to the pre-budget code.
* ``0`` means *no work allowed*: a zero deadline is already expired, a
  zero verify budget refuses every verification step.  Exhaustion is
  always explicit — it produces a degraded result, never a silent one.
* Negative values, and a NaN or infinite deadline, are configuration
  errors.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import BudgetExceeded, ConfigError


@dataclass(frozen=True)
class QueryBudget:
    """Resource bounds for one ``query()`` call.

    Parameters
    ----------
    deadline_ms:
        Wall-clock deadline in milliseconds, measured from
        :meth:`start`.  Applies to the whole call, cache keying and hit
        confirmation included; a result it could not finish is flagged
        ``complete=False`` and can be retried with a fresh budget.
    verify_steps:
        Cap on verification work units (matcher vertex expansions,
        anchored-assignment trials and piece-embedding extensions) summed
        across the call — the machine-independent twin of the deadline.
    """

    deadline_ms: Optional[float] = None
    verify_steps: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("deadline_ms", "verify_steps"):
            value = getattr(self, name)
            # NaN fails every comparison, so it lands here too instead of
            # yielding a token that never expires.
            if value is not None and not 0 <= value < math.inf:
                raise ConfigError(
                    f"QueryBudget.{name} must be a finite number >= 0 or "
                    f"None, got {value}"
                )

    @property
    def unbounded(self) -> bool:
        """True when this budget constrains nothing (no token is issued)."""
        return self.deadline_ms is None and self.verify_steps is None

    def start(self) -> Optional["CancellationToken"]:
        """Begin the clock: returns a token, or ``None`` for a no-op budget."""
        if self.unbounded:
            return None
        deadline = None
        if self.deadline_ms is not None:
            deadline = time.perf_counter() + self.deadline_ms / 1000.0
        return CancellationToken(
            deadline=deadline, verify_steps=self.verify_steps
        )


class CancellationToken:
    """Shared cancellation state for one budgeted call, safe across threads.

    One token is created per ``query()`` call and
    handed to every pipeline stage.  The engine runs those stages on the
    caller's thread, but another thread may :meth:`cancel` the token or
    read :attr:`expired` while the call runs, so the state is
    cross-thread by design:

    * ``_deadline`` / ``_verify_cap`` are immutable after construction;
    * ``_expired`` is a :class:`threading.Event` (its own internal lock);
    * ``_charged`` / ``_reason`` are mutated only under ``_lock``.

    Hot loops batch their accounting: they keep a thread-local step
    counter and call :meth:`charge` every ``CHECK_INTERVAL`` steps, so
    the shared counter sees one locked update per interval rather than
    one per step (the deadline is therefore observed with at most
    ``CHECK_INTERVAL`` steps of slack — "bounded intervals", not exact).
    """

    #: How many work steps callers may run between token checks.
    CHECK_INTERVAL = 64

    def __init__(
        self,
        deadline: Optional[float] = None,
        verify_steps: Optional[int] = None,
    ) -> None:
        self._deadline = deadline
        self._verify_cap = verify_steps
        self._lock = threading.Lock()
        self._charged = 0
        self._reason: Optional[str] = None
        self._expired = threading.Event()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def expired(self) -> bool:
        """Has the budget run out?  (Event read; safe from any thread.)"""
        return self._expired.is_set()

    @property
    def reason(self) -> Optional[str]:
        """Why the token expired (``"deadline"`` / ``"verify-budget"`` /
        an explicit :meth:`cancel` reason), or ``None`` while live."""
        with self._lock:
            return self._reason

    @property
    def work_charged(self) -> int:
        """Verification work units accounted so far."""
        with self._lock:
            return self._charged

    def cancel(self, reason: str = "cancelled") -> None:
        """Expire the token explicitly (first reason wins)."""
        with self._lock:
            if self._reason is None:
                self._reason = reason
        self._expired.set()

    def expired_now(self) -> bool:
        """Like :attr:`expired`, but also evaluates the deadline clock.

        Non-raising — for stages like center pruning that degrade by
        *keeping* work rather than unwinding (sound either way).
        """
        if self._expired.is_set():
            return True
        if self._deadline is not None and time.perf_counter() > self._deadline:
            self.cancel("deadline")
            return True
        return False

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Raise :class:`BudgetExceeded` if the budget has run out.

        Cheap enough for per-candidate / per-recursion granularity: one
        event read plus one clock read when a deadline is set.
        """
        if self._expired.is_set():
            raise BudgetExceeded(self.reason or "cancelled")
        if self._deadline is not None and time.perf_counter() > self._deadline:
            self.cancel("deadline")
            raise BudgetExceeded("deadline")

    def charge(self, steps: int) -> None:
        """Account ``steps`` work units, then :meth:`poll`.

        Callers batch: accumulate up to :data:`CHECK_INTERVAL` steps
        locally, then charge them in one locked update.
        """
        over = False
        with self._lock:
            self._charged += steps
            if self._verify_cap is not None and self._charged > self._verify_cap:
                over = True
        if over:
            self.cancel("verify-budget")
        self.poll()

    def flush(self, steps: int) -> None:
        """Account ``steps`` work units *without* raising.

        Terminal accounting for batching loops: a search that exits (or
        unwinds) mid-interval still performed its sub-interval remainder,
        so the enumerator flushes it from a ``finally`` to keep
        :attr:`work_charged` exact.  Crossing the cap here still expires
        the token — the *next* checkpoint anywhere on the shared token
        raises — but the flush itself never does: the work is already
        done, and raising out of a normal completion would wrongly turn
        an exactly-resolved answer into a degraded one.
        """
        if steps <= 0:
            return
        over = False
        with self._lock:
            self._charged += steps
            if self._verify_cap is not None and self._charged > self._verify_cap:
                over = True
        if over:
            self.cancel("verify-budget")
