"""Unit tests for :mod:`repro.core.budget` — budgets, tokens, checkpoints."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.budget import CancellationToken, QueryBudget
from repro.exceptions import BudgetExceeded, ConfigError
from repro.graphs import LabeledGraph
from repro.graphs.isomorphism import subgraph_monomorphisms


# ----------------------------------------------------------------------
# QueryBudget validation / zero semantics
# ----------------------------------------------------------------------
class TestQueryBudget:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_ms": -1},
            {"verify_steps": -1},
            # NaN compares False with everything: accepted, it would give
            # a token that never expires.
            {"deadline_ms": float("nan")},
            {"deadline_ms": float("inf")},
        ],
    )
    def test_negative_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            QueryBudget(**kwargs)

    def test_unbounded_budget_issues_no_token(self):
        assert QueryBudget().unbounded
        assert QueryBudget().start() is None

    def test_zero_values_are_valid_and_mean_no_work(self):
        token = QueryBudget(deadline_ms=0).start()
        assert token is not None
        assert token.expired_now()
        with pytest.raises(BudgetExceeded) as exc:
            token.poll()
        assert exc.value.reason == "deadline"

        token = QueryBudget(verify_steps=0).start()
        with pytest.raises(BudgetExceeded) as exc:
            token.charge(1)
        assert exc.value.reason == "verify-budget"


# ----------------------------------------------------------------------
# CancellationToken
# ----------------------------------------------------------------------
class TestCancellationToken:
    def test_live_token_polls_clean(self):
        token = QueryBudget(deadline_ms=60_000, verify_steps=1000).start()
        token.poll()
        token.charge(10)
        assert not token.expired
        assert token.reason is None
        assert token.work_charged == 10

    def test_work_cap_expires_once_exceeded(self):
        token = QueryBudget(verify_steps=5).start()
        token.charge(5)  # exactly at cap: still fine
        with pytest.raises(BudgetExceeded):
            token.charge(1)
        assert token.expired
        assert token.reason == "verify-budget"

    def test_deadline_expires_by_clock(self):
        token = QueryBudget(deadline_ms=5).start()
        deadline = time.perf_counter() + 2.0
        while not token.expired_now() and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert token.expired
        assert token.reason == "deadline"

    def test_explicit_cancel_first_reason_wins(self):
        token = CancellationToken()
        token.cancel("load-shed")
        token.cancel("later")
        assert token.expired
        assert token.reason == "load-shed"
        with pytest.raises(BudgetExceeded) as exc:
            token.poll()
        assert exc.value.reason == "load-shed"

    def test_expiry_visible_across_threads(self):
        token = QueryBudget(verify_steps=50).start()
        seen = threading.Event()

        def worker():
            deadline = time.perf_counter() + 5.0
            while time.perf_counter() < deadline:
                if token.expired:
                    seen.set()
                    return
                time.sleep(0.001)

        t = threading.Thread(target=worker)
        t.start()
        with pytest.raises(BudgetExceeded):
            token.charge(51)
        t.join()
        assert seen.is_set()


# ----------------------------------------------------------------------
# matcher integration — the enumerator unwinds at bounded intervals
# ----------------------------------------------------------------------
class TestMatcherCancellation:
    @staticmethod
    def _hard_instance():
        # Odd cycle vs a single-label bipartite grid: no embedding exists,
        # but the matcher must walk an enormous path space to prove it.
        m = n = 6
        verts = ["a"] * (m * n)
        edges = []
        for r in range(m):
            for c in range(n):
                v = r * n + c
                if c + 1 < n:
                    edges.append((v, v + 1, 1))
                if r + 1 < m:
                    edges.append((v, v + n, 1))
        grid = LabeledGraph(verts, edges)
        cycle = LabeledGraph(
            ["a"] * 9, [(i, (i + 1) % 9, 1) for i in range(9)]
        )
        return cycle, grid

    def test_expired_token_unwinds_search(self):
        # prefilter=False: the walk-parity prefilter refutes an odd cycle
        # against a bipartite grid in a few hundred steps, so only the
        # unfiltered matcher still exhibits the unbounded path-space walk
        # this test exists to bound.
        cycle, grid = self._hard_instance()
        token = QueryBudget(verify_steps=200).start()
        with pytest.raises(BudgetExceeded):
            list(
                subgraph_monomorphisms(
                    cycle, grid, token=token, prefilter=False
                )
            )
        # The batched checkpoint allows at most one interval of slack.
        assert token.work_charged <= 200 + token.CHECK_INTERVAL

    def test_prefilter_refutes_hard_instance_within_budget(self):
        # The same budget that the unfiltered search blows through in one
        # checkpoint interval comfortably covers the prefiltered proof.
        cycle, grid = self._hard_instance()
        token = QueryBudget(verify_steps=2_000).start()
        assert list(subgraph_monomorphisms(cycle, grid, token=token)) == []
        assert not token.expired
        assert 0 < token.work_charged < 2_000

    @pytest.mark.parametrize("length", range(3, 12))
    def test_switched_on_parity_keeps_the_answer(self, length):
        # Walk parity switches on mid-search; the embeddings must be
        # exactly the unfiltered search's, for odd and even cycles alike.
        _, grid = self._hard_instance()
        cycle = LabeledGraph(
            ["a"] * length, [(i, (i + 1) % length, 1) for i in range(length)]
        )
        token = CancellationToken()
        found = list(subgraph_monomorphisms(cycle, grid, token=token))
        assert grid.matcher_index()._parity is not None  # parity did switch on
        plain = list(subgraph_monomorphisms(cycle, grid, prefilter=False))
        assert {tuple(sorted(m.items())) for m in found} == {
            tuple(sorted(m.items())) for m in plain
        }
        assert len(found) == len(plain)
        if length % 2:
            assert not found and token.work_charged < 2_000

    def test_no_token_is_exact(self):
        cycle, grid = self._hard_instance()
        assert list(subgraph_monomorphisms(cycle, grid)) == []
        assert (
            list(subgraph_monomorphisms(cycle, grid, prefilter=False)) == []
        )

    def test_generous_token_changes_nothing(self):
        pattern = LabeledGraph(["a", "b"], [(0, 1, 1)])
        target = LabeledGraph(["a", "b", "a"], [(0, 1, 1), (1, 2, 1)])
        free = list(subgraph_monomorphisms(pattern, target))
        token = QueryBudget(verify_steps=10_000, deadline_ms=60_000).start()
        assert list(subgraph_monomorphisms(pattern, target, token=token)) == free


# ----------------------------------------------------------------------
# exact step accounting — the flushed-remainder regression (PR 10)
# ----------------------------------------------------------------------
class TestExactStepAccounting:
    """The matcher flushes sub-interval remainders, so the ledger is exact.

    The pre-fix enumerator only charged the token every CHECK_INTERVAL
    steps and dropped the remainder on exit — every search shorter than
    64 candidate draws reported *zero* work, and longer ones undercounted
    by up to 63 steps per call.
    """

    @staticmethod
    def _instance():
        # P2 path into a P3 path, single labels: small, fully deterministic.
        pattern = LabeledGraph(["a", "b"], [(0, 1, 1)])
        target = LabeledGraph(["a", "b", "a"], [(0, 1, 1), (1, 2, 1)])
        return pattern, target

    def test_small_search_charges_exact_residual(self):
        pattern, target = self._instance()
        token = QueryBudget(verify_steps=10_000).start()
        assert len(list(subgraph_monomorphisms(pattern, target, token=token))) == 2
        # Exactly 4 candidates are drawn: level 0 scans the "a" label
        # bucket (vertices 0 and 2), and each placement draws vertex 1
        # from its image neighborhood at level 1.  All four are charged
        # even though 4 < CHECK_INTERVAL — the pre-fix ledger said 0.
        assert token.work_charged == 4
        assert token.work_charged < token.CHECK_INTERVAL

    def test_seeded_search_charges_exact_residual(self):
        pattern, target = self._instance()
        token = QueryBudget(verify_steps=10_000).start()
        found = list(
            subgraph_monomorphisms(pattern, target, seed={0: 2}, token=token)
        )
        assert found == [{0: 2, 1: 1}]
        # Pinning vertex 0 onto target 2 leaves one candidate draw: the
        # single neighborhood expansion for pattern vertex 1.
        assert token.work_charged == 1

    def test_generator_close_flushes_remainder(self):
        pattern, target = self._instance()
        token = QueryBudget(verify_steps=10_000).start()
        gen = subgraph_monomorphisms(pattern, target, token=token)
        next(gen)
        gen.close()  # abandoning the generator must still settle the ledger
        assert token.work_charged > 0

    def test_flush_is_non_raising_past_the_cap(self):
        token = QueryBudget(verify_steps=10).start()
        token.flush(25)  # work already done: account, expire, don't raise
        assert token.work_charged == 25
        assert token.expired
        assert token.reason == "verify-budget"
        with pytest.raises(BudgetExceeded):
            token.poll()  # the *next* checkpoint raises

    def test_flush_ignores_non_positive(self):
        token = QueryBudget(verify_steps=10).start()
        token.flush(0)
        assert token.work_charged == 0 and not token.expired
