"""Differential regression: batch per-result stats ≡ singleton stats.

The pre-fix ``QueryEngine._execute_batch`` finished every open plan with
the *batch-wide* elapsed time and one *shared* ``VerificationStats``, so
each member's ``phase_seconds["verification"]`` and ``result.verification``
were inflated by up to the batch size and disagreed with the same query
run through ``query()``.  This suite pins the fix: for every query in a
seeded corpus, ``query_batch`` must attribute to each member exactly the
deterministic stats its own ``query()`` run reports, while the engine's
aggregate counters stay unchanged.
"""

from __future__ import annotations

import pytest

from repro.core import QueryEngine, TreePiConfig, TreePiIndex
from repro.datasets import extract_query_workload, generate_aids_like
from repro.mining import SupportFunction

QUERY_SIZES = (3, 5, 7)
QUERIES_PER_SIZE = 3


@pytest.fixture(scope="module")
def corpus():
    db = generate_aids_like(12, avg_atoms=12, seed=107)
    queries = []
    for size in QUERY_SIZES:
        queries.extend(
            extract_query_workload(db, size, QUERIES_PER_SIZE, seed=size)
        )
    return db, queries


def build_engine(db, **kwargs):
    kwargs.setdefault("cache_size", 0)  # isolate pipelines from caching
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(2, 2.0, 5), seed=5)
    )
    return QueryEngine(index, **kwargs)


def assert_same_stats(single, batched):
    """Everything deterministic about the two results must be equal.

    Wall-clock values cannot be compared bit-for-bit across two runs, so
    timings are checked structurally (same phases recorded); every
    counter — including the per-result verification record the old code
    shared across the whole batch — must match exactly.
    """
    assert batched.matches == single.matches
    assert batched.direct_hit == single.direct_hit
    assert batched.partition_size == single.partition_size
    assert batched.sfq_size == single.sfq_size
    assert batched.candidates_after_filter == single.candidates_after_filter
    assert batched.candidates_after_prune == single.candidates_after_prune
    assert batched.complete and single.complete
    assert batched.prune_exhausted == single.prune_exhausted
    assert batched.verification == single.verification
    assert set(batched.phase_seconds) == set(single.phase_seconds)


class TestSingletonBatchEquivalence:
    def test_batch_of_one_equals_query(self, corpus):
        db, queries = corpus
        singles = build_engine(db)
        batches = build_engine(db)
        for query in queries:
            assert_same_stats(
                singles.query(query), batches.query_batch([query])[0]
            )

    def test_batch_members_equal_their_singleton_runs(self, corpus):
        db, queries = corpus
        singles = build_engine(db)
        batches = build_engine(db)
        batch_results = batches.query_batch(queries)
        for query, batched in zip(queries, batch_results):
            assert_same_stats(singles.query(query), batched)

    def test_pooled_batch_members_equal_serial_singletons(self, corpus):
        db, queries = corpus
        singles = build_engine(db)
        batches = build_engine(db, verify_workers=4)
        batch_results = batches.query_batch(queries)
        for query, batched in zip(queries, batch_results):
            assert_same_stats(singles.query(query), batched)

    def test_verification_records_not_shared_across_batch(self, corpus):
        db, queries = corpus
        engine = build_engine(db)
        results = engine.query_batch(queries)
        records = [r.verification for r in results]
        for i, a in enumerate(records):
            for b in records[i + 1 :]:
                assert a is not b

    def test_engine_totals_match_sum_of_members(self, corpus):
        db, queries = corpus
        singles = build_engine(db)
        batches = build_engine(db)
        for query in queries:
            singles.query(query)
        batches.query_batch(queries)
        s, b = singles.stats, batches.stats
        assert b.candidates_filtered == s.candidates_filtered
        assert b.verifications_run == s.verifications_run
        assert b.queries == s.queries == len(queries)

    def test_batch_verify_time_not_inflated_by_batch_size(self, corpus):
        """The old bug's signature: every member charged the whole batch.

        With per-plan attribution the members' verification seconds sum
        to (about) the batch's total verification work instead of
        ``batch_size × total``; checking the sum against the serial
        singleton sum with a generous factor keeps this robust on noisy
        CI boxes while still failing the inflated-attribution bug, which
        multiplies the sum by the number of open plans.
        """
        db, queries = corpus
        singles = build_engine(db)
        batches = build_engine(db)
        single_total = sum(
            singles.query(q).phase_seconds.get("verification", 0.0)
            for q in queries
        )
        batch_total = sum(
            r.phase_seconds.get("verification", 0.0)
            for r in batches.query_batch(queries)
        )
        floor = 1e-4  # absolute slack for near-zero workloads
        assert batch_total <= 3.0 * single_total + floor
