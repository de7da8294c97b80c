"""Engine-level deadline/budget semantics: sound degradation, no caching.

The degradation contract (see :mod:`repro.core.budget`): a budgeted query
may loosen *filters* but never *answers* — every reported match is exactly
verified, every true match the budget could not reach is listed in
``unresolved``, and a ``complete=False`` result is never cached.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis.contracts import ContractViolation
from repro.baselines.scan import SequentialScan
from repro.core import QueryBudget, QueryEngine, TreePiConfig, TreePiIndex
from repro.core.engine import _CacheEntry
from repro.datasets import extract_query_workload, generate_aids_like
from repro.graphs import GraphDatabase, LabeledGraph
from repro.mining import SupportFunction


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chem():
    db = generate_aids_like(30, avg_atoms=14, seed=7)
    queries = list(extract_query_workload(db, 6, 6, seed=3))
    return db, queries


def build_engine(db, **engine_kwargs):
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(2, 2.0, 5), seed=5)
    )
    return QueryEngine(index, **engine_kwargs)


def _grid(m, n):
    verts = ["a"] * (m * n)
    edges = []
    for r in range(m):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1, 1))
            if r + 1 < m:
                edges.append((v, v + n, 1))
    return LabeledGraph(verts, edges)


def _odd_cycle(k):
    return LabeledGraph(["a"] * k, [(i, (i + 1) % k, 1) for i in range(k)])


@pytest.fixture(scope="module")
def adversarial():
    """Odd-cycle query over single-label bipartite grids.

    No grid contains an odd cycle, but proving that forces the matcher
    through a huge path space — the NP-complete worst case a deadline
    exists to bound.  ``matcher_prefilters=False``: the walk-parity
    prefilter refutes exactly this instance in well under a millisecond
    (see ``TestPrefiltersDefuseAdversary``), and these tests exercise
    the deadline machinery, which needs the worst case to stay worst.
    """
    db = GraphDatabase([_grid(6, 6) for _ in range(4)])
    config = TreePiConfig(
        SupportFunction(1, 2.0, 2),
        gamma=1.1,
        matcher_prefilters=False,
        seed=5,
    )
    return db, config, _odd_cycle(9)


# ----------------------------------------------------------------------
# soundness of degraded results
# ----------------------------------------------------------------------
class TestDegradedSoundness:
    def test_matches_and_unresolved_bracket_exact_answer(self, chem):
        db, queries = chem
        exact_engine = build_engine(db, cache_size=0)
        tight_engine = build_engine(db, cache_size=0)
        saw_degraded = False
        for query in queries:
            exact = exact_engine.query(query)
            degraded = tight_engine.query(
                query, budget=QueryBudget(verify_steps=0)
            )
            assert degraded.matches <= exact.matches
            assert exact.matches <= degraded.matches | degraded.unresolved
            if not degraded.complete:
                saw_degraded = True
                assert degraded.degraded_reason == "verify-budget"
                assert degraded.unresolved
        assert saw_degraded, "workload never exercised degradation"

    def test_no_budget_results_are_complete(self, chem):
        db, queries = chem
        engine = build_engine(db, cache_size=0)
        for query in queries:
            result = engine.query(query)
            assert result.complete
            assert result.unresolved == frozenset()
            assert result.degraded_reason is None
        stats = engine.stats
        assert stats.degraded_results == 0
        assert stats.unresolved_candidates == 0

    def test_degradation_counters(self, chem):
        db, queries = chem
        engine = build_engine(db, cache_size=0)
        degraded = [
            r
            for q in queries
            for r in [engine.query(q, budget=QueryBudget(verify_steps=0))]
            if not r.complete
        ]
        stats = engine.stats
        assert stats.degraded_results == len(degraded)
        assert stats.unresolved_candidates == sum(
            len(r.unresolved) for r in degraded
        )


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------
class TestDegradedNeverCached:
    def test_incomplete_results_never_enter_the_cache(self, chem):
        db, queries = chem
        engine = build_engine(db, cache_size=32)
        for query in queries:
            engine.query(query, budget=QueryBudget(verify_steps=0))
        complete = sum(
            1
            for q in queries
            if engine.query(q, budget=QueryBudget(verify_steps=0)).complete
        )
        # Only complete answers may be memoized.
        assert engine.cached_results <= complete

    def test_retry_without_budget_recomputes_exactly(self, chem):
        db, queries = chem
        engine = build_engine(db, cache_size=32)
        reference = build_engine(db, cache_size=0)
        for query in queries:
            degraded = engine.query(query, budget=QueryBudget(verify_steps=0))
            retried = engine.query(query)  # fresh, unbudgeted
            assert retried.complete
            assert retried.matches == reference.query(query).matches
            if not degraded.complete:
                assert retried.matches >= degraded.matches

    def test_cached_complete_answer_serves_budgeted_call(self, chem):
        db, queries = chem
        engine = build_engine(db, cache_size=32)
        exact = engine.query(queries[0])
        hits_before = engine.stats.cache_hits
        served = engine.query(queries[0], budget=QueryBudget(verify_steps=0))
        assert served.complete and served.matches == exact.matches
        assert engine.stats.cache_hits == hits_before + 1

    def test_budgeted_cache_hit_charges_its_confirmation(self, chem):
        """Confirming a cached isomorphism class runs under the call's
        token: the confirmation search is charged to the budget on every
        hit, so a deadline bounds it like any other stage.  (A tree
        confirms by canonical string, with no search, so the query is a
        ring.)"""
        db, _ = chem
        ring = LabeledGraph(["C"] * 6, [(i, (i + 1) % 6, 1) for i in range(6)])
        turned = ring.relabeled([3, 4, 5, 0, 1, 2])
        engine = build_engine(db, cache_size=32)
        exact = engine.query(ring)
        served = engine.query(turned, budget=QueryBudget(verify_steps=10**6))
        assert served.matches == exact.matches
        assert engine.stats.cache_hits == 1
        single_steps = engine.stats.verify_steps
        assert single_steps > 0
        again = engine.query(
            ring.relabeled([1, 2, 3, 4, 5, 0]),
            budget=QueryBudget(verify_steps=10**6),
        )
        assert again.matches == exact.matches
        assert engine.stats.cache_hits == 2
        assert engine.stats.verify_steps > single_steps


# ----------------------------------------------------------------------
# only BudgetExceeded degrades: every other error propagates
# ----------------------------------------------------------------------
class TestNonBudgetErrorsPropagate:
    """A broken invariant during verification or cache confirmation must
    surface, never turn into an unresolved candidate or a cache miss."""

    @pytest.fixture
    def faulty_verify(self, chem, monkeypatch):
        """An engine whose verification raises for one candidate of a query."""
        db, queries = chem
        engine = build_engine(db, cache_size=0)
        plan = next(p for p in map(engine.index.plan, queries) if p.survivors)
        bad = plan.survivors[-1]
        verify = TreePiIndex.verify

        def failing_verify(index, plan, gid, token=None):
            if gid == bad:
                raise ContractViolation("seeded verification fault")
            return verify(index, plan, gid, token=token)

        monkeypatch.setattr(TreePiIndex, "verify", failing_verify)
        return engine, plan.query

    @pytest.mark.parametrize(
        "budget", [None, QueryBudget(verify_steps=10**9)], ids=["unbudgeted", "budgeted"]
    )
    def test_verification_error_leaves_every_entry_point(self, faulty_verify, budget):
        engine, query = faulty_verify
        with pytest.raises(ContractViolation, match="seeded"):
            engine.index.query(query, budget=budget)
        with pytest.raises(ContractViolation, match="seeded"):
            engine.query(query, budget=budget)

    @pytest.mark.parametrize(
        "budget", [None, QueryBudget(verify_steps=10**9)], ids=["unbudgeted", "budgeted"]
    )
    def test_confirmation_error_leaves_a_cached_query(self, chem, monkeypatch, budget):
        db, queries = chem
        engine = build_engine(db, cache_size=32)
        engine.query(queries[0])

        def failing_same_class(entry, other, token):
            raise ContractViolation("seeded confirmation fault")

        monkeypatch.setattr(_CacheEntry, "same_class", failing_same_class)
        with pytest.raises(ContractViolation, match="seeded"):
            engine.query(queries[0], budget=budget)


# ----------------------------------------------------------------------
# deadlines under adversarial load
# ----------------------------------------------------------------------
class TestAdversarialDeadline:
    DEADLINE_MS = 50.0

    def test_unbudgeted_query_is_genuinely_expensive(self, adversarial):
        db, config, query = adversarial
        index = TreePiIndex.build(db, config)
        t0 = time.perf_counter()
        result = index.query(query)
        elapsed_ms = (time.perf_counter() - t0) * 1000
        assert result.matches == frozenset()  # no odd cycle in a grid
        assert elapsed_ms > self.DEADLINE_MS  # the deadline has teeth

    def test_deadline_bounds_latency_and_stays_sound(self, adversarial):
        db, config, query = adversarial
        engine = QueryEngine(TreePiIndex.build(db, config))
        t0 = time.perf_counter()
        result = engine.query(
            query, budget=QueryBudget(deadline_ms=self.DEADLINE_MS)
        )
        elapsed_ms = (time.perf_counter() - t0) * 1000
        assert elapsed_ms < 5 * self.DEADLINE_MS
        assert not result.complete
        assert result.degraded_reason == "deadline"
        assert result.matches == frozenset()  # nothing falsely matched
        assert result.unresolved  # the work it gave up on is visible

    def test_cyclic_query_keys_and_confirms_under_the_deadline(self, chem):
        """A single-label K7 once spent ~2 s in a minimum-DFS-code cache
        key computed before the clock started.  The key is now a cheap
        invariant under the deadline, and so is the confirmation of the
        repeat's cache hit."""
        db, _ = chem
        k7 = LabeledGraph(
            ["C"] * 7, [(u, v, 1) for u in range(7) for v in range(u + 1, 7)]
        )
        engine = build_engine(db, cache_size=32)
        exact = SequentialScan(engine.index.database).support_set(k7)
        for _ in range(2):
            t0 = time.perf_counter()
            result = engine.query(
                k7, budget=QueryBudget(deadline_ms=self.DEADLINE_MS)
            )
            elapsed_ms = (time.perf_counter() - t0) * 1000
            assert elapsed_ms < 5 * self.DEADLINE_MS
            assert result.matches <= exact <= result.matches | result.unresolved

    def test_concurrent_maintenance_completes_despite_runaway_query(
        self, adversarial
    ):
        db, config, query = adversarial
        engine = QueryEngine(TreePiIndex.build(db, config))
        insert_done = threading.Event()
        results = {}

        def run_query():
            results["q"] = engine.query(
                query, budget=QueryBudget(deadline_ms=self.DEADLINE_MS)
            )

        def run_insert():
            results["gid"] = engine.insert(_grid(3, 3))
            insert_done.set()

        qt = threading.Thread(target=run_query)
        wt = threading.Thread(target=run_insert)
        qt.start()
        wt.start()
        # The writer must not be starved behind an unbounded reader: the
        # deadline releases the read lock, so maintenance lands quickly.
        assert insert_done.wait(timeout=10.0)
        qt.join(timeout=10.0)
        wt.join(timeout=10.0)
        assert not qt.is_alive() and not wt.is_alive()
        assert results["gid"] in engine.index.database.graph_ids()
        assert not results["q"].complete


# ----------------------------------------------------------------------
# matcher prefilters vs the same adversary
# ----------------------------------------------------------------------
class TestPrefiltersDefuseAdversary:
    #: A machine-independent bound: about 16x the work the prefiltered
    #: matcher spends refuting the instance, and a small fraction of what
    #: the unfiltered search needs.
    VERIFY_STEPS = 10_000

    def test_prefilters_complete_within_deadline(self, adversarial):
        """Under one verification-step cap (the deadline's machine-
        independent twin), prefilters (the default) refute the adversary
        exactly — no degradation, same (empty) answer — while the
        unprefiltered matcher runs out of budget."""
        db, config, query = adversarial
        budget = QueryBudget(verify_steps=self.VERIFY_STEPS)
        fast_config = TreePiConfig(
            SupportFunction(1, 2.0, 2),
            gamma=1.1,
            seed=5,
        )
        assert fast_config.matcher_prefilters  # the default
        engine = QueryEngine(TreePiIndex.build(db, fast_config), cache_size=0)
        result = engine.query(query, budget=budget)
        assert result.complete
        assert result.matches == frozenset()
        assert result.unresolved == frozenset()
        assert engine.stats.degraded_results == 0

        slow = QueryEngine(TreePiIndex.build(db, config), cache_size=0)
        degraded = slow.query(query, budget=budget)
        assert not degraded.complete
        assert degraded.degraded_reason == "verify-budget"
        assert degraded.matches == frozenset()
        assert degraded.unresolved
        assert slow.stats.degraded_results == 1

    def test_prefilters_do_not_change_answers(self, adversarial):
        db, config, query = adversarial
        slow = QueryEngine(TreePiIndex.build(db, config), cache_size=0)
        fast_config = TreePiConfig(
            SupportFunction(1, 2.0, 2),
            gamma=1.1,
            seed=5,
        )
        fast = QueryEngine(TreePiIndex.build(db, fast_config), cache_size=0)
        assert (
            slow.query(query).matches
            == fast.query(query).matches
            == frozenset()
        )

    def test_engine_verify_steps_ledger_is_fed(self, adversarial):
        """Budgeted calls fold the token's exact work total into
        EngineStats.verify_steps (zero before the fix: the matcher
        dropped sub-interval remainders and the engine never read the
        ledger)."""
        db, config, query = adversarial
        fast_config = TreePiConfig(
            SupportFunction(1, 2.0, 2),
            gamma=1.1,
            seed=5,
        )
        engine = QueryEngine(TreePiIndex.build(db, fast_config), cache_size=0)
        assert engine.stats.verify_steps == 0
        result = engine.query(query, budget=QueryBudget(verify_steps=100_000))
        assert result.complete
        steps_after_one = engine.stats.verify_steps
        assert steps_after_one > 0
        engine.query(query, budget=QueryBudget(verify_steps=100_000))
        assert engine.stats.verify_steps == 2 * steps_after_one
        # Unbudgeted traffic has no token, so the ledger is untouched.
        engine.query(query)
        assert engine.stats.verify_steps == 2 * steps_after_one
