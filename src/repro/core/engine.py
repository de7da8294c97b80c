"""A thread-safe, caching query engine over a built TreePi index.

:class:`TreePiIndex` is a single-shot pipeline: every ``query()`` call
re-runs partition, filtering and verification from scratch, and
nothing protects concurrent callers from in-flight ``insert``/``delete``
maintenance.  Production substructure search looks different — the same
hot queries arrive over and over, batches contain isomorphic duplicates,
and reads vastly outnumber writes.  :class:`QueryEngine` adds that
serving layer:

* **Result caching.**  Answers are memoized in an LRU cache keyed on the
  query's *canonical label*, so isomorphic queries share one entry.  Any
  maintenance operation (``insert``/``delete``/``rebuild``) invalidates
  the whole cache; a generation counter guarantees a result computed
  against the pre-mutation index can never be stored afterwards.
* **Concurrency.**  A readers-writer lock lets any number of queries run
  simultaneously while maintenance gets exclusive access.  Verification
  of independent candidates — the pipeline's dominant cost on non-trivial
  queries — fans out over a thread pool when ``verify_workers > 1``.
* **Batching.**  :meth:`query_batch` deduplicates isomorphic queries up
  front and verifies the candidates of *all* member queries on one pool.
* **Observability.**  Per-stage counters (:class:`EngineStats`) are kept
  under the engine lock and surfaced through the wrapped index's
  :class:`~repro.core.statistics.IndexStats` as ``stats.engine``.
* **Deadlines.**  :meth:`query`/:meth:`query_batch` accept a
  :class:`~repro.core.budget.QueryBudget`; on expiry the call returns
  *degraded but sound* results — verified matches found so far plus the
  unresolved candidate ids, flagged ``complete=False`` and never cached
  — instead of letting one adversarial verification hold the read lock
  unboundedly (which, with a writer-preferring RW lock, would freeze
  every other caller behind a waiting writer).

The engine never changes answers: every *complete* result is exactly what
the wrapped :meth:`TreePiIndex.query` would return (the differential
suite in ``tests/differential`` locks this down against the scan and
gIndex oracles), and a degraded result's ``matches``/``unresolved`` pair
brackets that exact answer.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow import hot_path
from repro.analysis.guards import TrackedLock, guarded_by, note_acquire, note_release
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.statistics import EngineStats, QueryResult
from repro.core.treepi import QueryPlan, TreePiIndex
from repro.exceptions import BudgetExceeded, IndexError_
from repro.graphs.canonical import canonical_label
from repro.graphs.graph import LabeledGraph
from repro.trees.canonical import tree_canonical_string


def query_cache_key(query: LabeledGraph) -> str:
    """The cache key of a query: its canonical label, scheme-prefixed.

    Trees use the cheap tree canonicalization, general graphs the minimum
    DFS code; the prefix keeps the two namespaces from colliding.
    """
    if query.is_tree():
        return "t:" + tree_canonical_string(query)
    return "g:" + canonical_label(query)


class ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Queries hold the read side for their full pipeline so maintenance can
    never observe (or cause) a half-executed query; waiting writers block
    new readers, so a stream of queries cannot starve maintenance.

    Acquisitions report to the :mod:`repro.analysis.guards` lock-order
    tracker (active only under ``REPRO_CONTRACTS=1``) *before* blocking,
    so an ordering cycle raises instead of deadlocking; the internal
    condition variable is deliberately untracked meta-state.

    :class:`QueryEngine` guards its served index with one: queries take
    the read side; inserts, deletes and the final splice of a rebuild or
    compaction take the write side.
    """

    def __init__(self, name: str = "ReadWriteLock") -> None:
        self.name = name
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        note_acquire(self, self.name, "read")
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()
            note_release(self)

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        note_acquire(self, self.name, "write")
        with self._cond:
            self._writers_waiting += 1
            while self._writer_active or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()
            note_release(self)


@dataclass
class _PlanOutcome:
    """Per-plan verification attribution (one plan's own work, no sharing).

    ``elapsed`` is the sum of the plan's own task durations — on a pooled
    batch that is the plan's *attributed* verification cost, independent
    of how many other plans shared the pool (the pre-fix code charged
    every plan the batch-wide wall time and one shared counter record).
    """

    matches: FrozenSet[int] = frozenset()
    elapsed: float = 0.0
    matched: Set[int] = field(default_factory=set)
    unresolved: List[int] = field(default_factory=list)


class _LRUCache:
    """A size-bounded mapping with least-recently-used eviction.

    Not internally synchronized — the engine guards every access with its
    own mutex.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: "OrderedDict[str, QueryResult]" = OrderedDict()

    def get(self, key: str) -> Optional[QueryResult]:
        result = self._data.get(key)
        if result is not None:
            self._data.move_to_end(key)
        return result

    def put(self, key: str, value: QueryResult) -> None:
        if self.capacity <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class QueryEngine:
    """Concurrent, cached query serving over one :class:`TreePiIndex`.

    Parameters
    ----------
    index:
        The built index to serve.  The engine takes over maintenance —
        route ``insert``/``delete``/``rebuild`` through the engine, not
        the raw index, or cached results may go stale.
    cache_size:
        Maximum number of distinct (up to isomorphism) query results kept;
        ``0`` disables caching.
    verify_workers:
        Thread-pool width for candidate verification.  ``1`` verifies
        inline; answers are identical either way.
    """

    def __init__(
        self,
        index: TreePiIndex,
        cache_size: int = 128,
        verify_workers: int = 1,
    ) -> None:
        if cache_size < 0:
            raise IndexError_(f"cache_size must be >= 0, got {cache_size}")
        if verify_workers < 1:
            raise IndexError_(
                f"verify_workers must be >= 1, got {verify_workers}"
            )
        self._index = index
        self._verify_workers = verify_workers
        # Lock order is _rw -> _mutex (never the reverse); the guards
        # tracker verifies that discipline under REPRO_CONTRACTS=1.
        self._rw = ReadWriteLock("QueryEngine._rw")
        self._mutex = TrackedLock("QueryEngine._mutex")
        self._cache = _LRUCache(cache_size)
        self._caching = cache_size > 0  # immutable: the capacity never changes
        self._generation = 0
        self._counters = EngineStats()
        index.stats.engine = self._counters
        index.attach_serving_lock(self._rw)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def index(self) -> TreePiIndex:
        """The currently served index (``rebuild`` swaps it atomically).

        The reference is read under the read lock; holding the *returned*
        index across maintenance is the caller's explicit decision.
        """
        with self._rw.read_locked():
            index = self._index
        return index

    @property
    def cache_size(self) -> int:
        with self._mutex:
            return self._cache.capacity

    @property
    def cached_results(self) -> int:
        """Number of answers currently cached."""
        with self._mutex:
            return len(self._cache)

    @property
    def stats(self) -> EngineStats:
        """A consistent snapshot of the per-stage counters."""
        with self._mutex:
            return self._counters.snapshot()

    def graph_ids(self) -> List[int]:
        """Sorted ids of the graphs currently served.

        Taken under the read lock, so the list is a consistent snapshot
        that a concurrent insert or delete cannot change half-way.
        """
        with self._rw.read_locked():
            return self._index.database.graph_ids()

    def storage_bytes(self) -> int:
        """Resident bytes of the served index's columnar storage.

        Taken under the read lock so a concurrent rebuild/maintenance
        splice cannot be observed half-way; the columns themselves are
        immutable snapshots (see :mod:`repro.storage.occurrences`), so
        the sum is consistent.
        """
        with self._rw.read_locked():
            return self._index.storage_bytes()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self, query: LabeledGraph, budget: Optional[QueryBudget] = None
    ) -> QueryResult:
        """Answer one query, serving from cache when possible.

        ``budget`` bounds the call (deadline and/or work caps); on expiry
        a degraded-but-sound result comes back (``complete=False``, never
        cached — see :mod:`repro.core.budget`).  A cached *complete*
        result may serve a budgeted call: it is exact, which is strictly
        better than the degradation contract requires.
        """
        # With caching off nothing reads the key, and on cyclic queries it
        # costs a minimum-DFS-code search, so skip computing it.
        key = query_cache_key(query) if self._caching else None
        cached, generation = self._cache_lookup(key)
        if cached is not None:
            return cached
        token = budget.start() if budget is not None else None
        with self._rw.read_locked():
            result = self._execute(query, token=token)
        self._count_degradation([result], token)
        self._cache_store(key, result, generation)
        return result

    def query_batch(
        self,
        queries: Sequence[LabeledGraph],
        budget: Optional[QueryBudget] = None,
    ) -> List[QueryResult]:
        """Answer many queries at once.

        Isomorphic duplicates are detected by canonical label and computed
        once; the verification work of every distinct uncached query is
        flattened into independent (query, candidate) tasks and run on a
        single thread pool.

        ``budget`` bounds the *call*: the whole batch shares one deadline
        clock and one work cap.  Members the budget could not finish come
        back individually flagged ``complete=False`` with their own
        unresolved candidate lists — retry just those stragglers with a
        fresh budget (they were never cached, so a retry recomputes).
        """
        keys = [query_cache_key(q) for q in queries]
        resolved: Dict[str, QueryResult] = {}
        pending: List[Tuple[str, LabeledGraph]] = []
        generation = 0
        with self._mutex:
            self._counters.batch_queries += len(queries)
            self._counters.queries += len(queries)
            generation = self._generation
            seen_in_batch = set()
            for key, query in zip(keys, queries):
                if key in seen_in_batch:
                    self._counters.batch_dedup_hits += 1
                    continue
                seen_in_batch.add(key)
                cached = self._cache.get(key)
                if cached is not None:
                    self._counters.cache_hits += 1
                    resolved[key] = cached
                else:
                    self._counters.cache_misses += 1
                    pending.append((key, query))
        if pending:
            token = budget.start() if budget is not None else None
            with self._rw.read_locked():
                computed = self._execute_batch(
                    [q for _, q in pending], token=token
                )
            self._count_degradation(computed, token)
            for (key, _), result in zip(pending, computed):
                resolved[key] = result
                self._cache_store(key, result, generation)
        return [resolved[key] for key in keys]

    # ------------------------------------------------------------------
    # maintenance (write-locked; every mutation invalidates the cache)
    # ------------------------------------------------------------------
    def insert(self, graph: LabeledGraph) -> int:
        """Add a graph through the index's maintenance path; returns its id."""
        with self._rw.write_locked():
            gid = self._index.insert(graph)
            self._invalidate("inserts")
            self._note_maintenance()
        return gid

    def delete(self, graph_id: int) -> None:
        """Remove a graph and purge it from every feature."""
        with self._rw.write_locked():
            self._index.delete(graph_id)
            self._invalidate("deletes")
            self._note_maintenance()

    def _note_maintenance(self) -> None:
        """Post-mutation hook (write lock held): flush full memtables.

        A no-op on in-memory indexes.  On a segment-backed index the
        buffered insert/delete ops spill to an immutable delta segment
        once the memtable threshold trips; readers switch to the mapped
        layer without any answer change, so no extra invalidation is
        needed beyond the one the mutation already did.
        """
        if self._index.maybe_flush_segments():
            with self._mutex:
                self._counters.flushes += 1

    def rebuild(self) -> None:
        """Reconstruct the index from the current database state in place.

        The expensive build (mining + feature materialization, possibly a
        process pool) runs under the *read* lock, concurrently with
        queries — holding the writer lock across it would stall every
        reader for the whole build (REPRO202).  The writer lock is taken
        only for the swap; if maintenance raced the build (generation
        moved), the stale build is discarded and retried against the new
        database state.
        """
        while True:
            with self._mutex:
                observed = self._generation
            with self._rw.read_locked():
                rebuilt = self._index.rebuild()
            with self._rw.write_locked():
                with self._mutex:
                    raced = self._generation != observed
                if raced:
                    continue
                with self._mutex:
                    rebuilt.stats.engine = self._counters
                rebuilt.attach_serving_lock(self._rw)
                self._index = rebuilt
                self._invalidate("rebuilds")
                return

    def needs_rebuild(self) -> bool:
        with self._rw.read_locked():
            return self._index.needs_rebuild()

    def flush(self) -> bool:
        """Force-flush buffered segment maintenance (no-op when in-memory)."""
        with self._rw.write_locked():
            flushed = self._index.flush_segments()
        if flushed:
            with self._mutex:
                self._counters.flushes += 1
        return flushed

    def needs_compaction(self) -> bool:
        """True when the served index accumulated enough delta segments."""
        with self._rw.read_locked():
            return self._index.needs_compaction()

    def compact(self) -> bool:
        """Fold base + deltas − tombstones into one fresh base segment.

        Mirrors :meth:`rebuild`'s optimistic pattern: the expensive merge
        (:meth:`TreePiIndex.prepare_compaction`, a full checkpoint of the
        live view) runs under the *read* lock, concurrently with queries.
        The writer lock is taken only to publish; if maintenance raced
        the merge (generation moved), the staged segment is discarded and
        the merge retried against the new state.  Returns ``False`` when
        the index is not segment-backed or there was nothing to fold.
        """
        while True:
            with self._mutex:
                observed = self._generation
            with self._rw.read_locked():
                plan = self._index.prepare_compaction()
            if plan is None:
                return False
            with self._rw.write_locked():
                with self._mutex:
                    raced = self._generation != observed
                if raced:
                    plan.discard()
                    continue
                self._index.commit_compaction(plan)
                self._invalidate("compactions")
                return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cache_lookup(
        self, key: Optional[str]
    ) -> Tuple[Optional[QueryResult], int]:
        """Count the query and return ``(cached result, generation)``.

        A ``None`` key (caching off) always counts as a miss.
        """
        with self._mutex:
            self._counters.queries += 1
            cached = self._cache.get(key) if key is not None else None
            if cached is not None:
                self._counters.cache_hits += 1
            else:
                self._counters.cache_misses += 1
            return cached, self._generation

    def _cache_store(
        self, key: Optional[str], result: QueryResult, generation: int
    ) -> None:
        """Memoize ``result`` unless the index changed since it started.

        Degraded results (``complete=False``) are *never* stored: their
        answer depends on the budget that produced them, and caching one
        would let a timeout masquerade as the exact answer for every
        later (possibly unbudgeted) isomorphic query.
        """
        if key is None or not result.complete:
            return
        with self._mutex:
            if self._generation == generation:
                self._cache.put(key, result)

    def _invalidate(self, counter: str) -> None:
        """Bump the generation and drop every cached answer.

        Called while holding the write lock, so no query pipeline is in
        flight; results still waiting to be stored observe the generation
        bump and discard themselves.
        """
        with self._mutex:
            self._generation += 1
            self._cache.clear()
            self._counters.invalidations += 1
            setattr(
                self._counters, counter, getattr(self._counters, counter) + 1
            )

    def _count_pipeline(self, plan: QueryPlan) -> None:
        with self._mutex:
            self._counters.candidates_filtered += plan.candidates_after_filter
            self._counters.verifications_run += len(plan.survivors)

    def _count_degradation(
        self,
        results: Sequence[QueryResult],
        token: Optional[CancellationToken],
    ) -> None:
        """Fold one budgeted call's work ledger and degradation into the counters.

        ``verify_steps`` accumulates the token's exact work total whether
        or not the call degraded — the engine-level twin of
        :attr:`~repro.core.budget.CancellationToken.work_charged`.  A
        call counts as a timeout only if it handed back a degraded
        result: a search that crosses the work cap in its final,
        non-raising flush expires the token but has already answered
        exactly.
        """
        if token is None:
            return
        degraded = [r for r in results if not r.complete]
        steps = token.work_charged
        if not degraded and not steps:
            return
        with self._mutex:
            self._counters.verify_steps += steps
            if degraded:
                self._counters.timeouts += 1
            self._counters.degraded_results += len(degraded)
            self._counters.unresolved_candidates += sum(
                len(r.unresolved) for r in degraded
            )

    @hot_path
    @guarded_by("_rw", mode="read")
    def _execute(
        self,
        query: LabeledGraph,
        token: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Run one full pipeline (caller holds the read lock)."""
        plan = self._index.plan(query, token=token)
        if plan.result is not None:
            return plan.result
        self._count_pipeline(plan)
        outcome = self._verify_plans([plan], token)[0]
        return self._finish_plan(plan, outcome, token)

    @hot_path
    @guarded_by("_rw", mode="read")
    def _execute_batch(
        self,
        queries: Sequence[LabeledGraph],
        token: Optional[CancellationToken] = None,
    ) -> List[QueryResult]:
        """Run pipelines for distinct queries, pooling their verification.

        Verification time is attributed *per plan* (the summed durations
        of its own tasks), so every member's :class:`QueryResult` reports
        exactly what :meth:`query` would have reported for it alone —
        pooling changes wall-clock, never attribution.
        """
        plans = [self._index.plan(query, token=token) for query in queries]
        open_plans = [plan for plan in plans if plan.result is None]
        for plan in open_plans:
            self._count_pipeline(plan)
        outcomes = self._verify_plans(open_plans, token)
        results: List[QueryResult] = []
        open_index = 0
        for plan in plans:
            if plan.result is not None:
                results.append(plan.result)
            else:
                results.append(
                    self._finish_plan(plan, outcomes[open_index], token)
                )
                open_index += 1
        return results

    def _finish_plan(
        self,
        plan: QueryPlan,
        outcome: "_PlanOutcome",
        token: Optional[CancellationToken],
    ) -> QueryResult:
        return self._index.finish(
            plan,
            outcome.matches,
            outcome.elapsed,
            unresolved=outcome.unresolved,
            degraded_reason=token.reason if token is not None else None,
        )

    @hot_path
    @guarded_by("_rw", mode="read")
    def _verify_plans(
        self, plans: List[QueryPlan], token: Optional[CancellationToken] = None
    ) -> List["_PlanOutcome"]:
        """Verify the survivors of every plan, fanning out when configured.

        Tasks are independent ``(plan, candidate)`` pairs; each worker
        times its own task and the time is added *to the owning plan's
        outcome*, so each plan's totals match a serial run of that plan
        regardless of batching or pool width.  A task cut short by the
        budget (:class:`~repro.exceptions.BudgetExceeded`) marks its
        candidate unresolved; once the shared token expires, the
        remaining queued tasks short-circuit at their first checkpoint.
        """
        tasks: List[Tuple[int, int]] = [
            (plan_idx, gid)
            for plan_idx, plan in enumerate(plans)
            for gid in plan.survivors
        ]

        def run_one(
            task: Tuple[int, int]
        ) -> Tuple[int, int, Optional[bool], float]:
            plan_idx, gid = task
            t0 = time.perf_counter()
            ok: Optional[bool]
            try:
                ok = self._index.verify(plans[plan_idx], gid, token=token)
            except BudgetExceeded:
                ok = None  # unresolved: neither matched nor rejected
            return plan_idx, gid, ok, time.perf_counter() - t0

        if self._verify_workers > 1 and len(tasks) > 1:
            with ThreadPoolExecutor(max_workers=self._verify_workers) as pool:
                raw = list(pool.map(run_one, tasks))
        else:
            raw = [run_one(task) for task in tasks]

        outcomes = [_PlanOutcome() for _ in plans]
        for plan_idx, gid, ok, seconds in raw:
            outcome = outcomes[plan_idx]
            outcome.elapsed += seconds
            if ok is None:
                outcome.unresolved.append(gid)
            elif ok:
                outcome.matched.add(gid)
        for outcome in outcomes:
            outcome.matches = frozenset(outcome.matched)
        return outcomes


class BackgroundCompactor:
    """A daemon thread that folds delta segments as they accumulate.

    Polls :meth:`QueryEngine.needs_compaction` every ``interval`` seconds
    and runs :meth:`QueryEngine.compact` when it trips.  All locking
    lives in the engine (read-locked merge, write-locked publish with a
    generation check), so the thread body is a plain poll loop; stopping
    waits for any in-flight compaction to finish publishing.

    Usable as a context manager::

        with BackgroundCompactor(engine, interval=0.05):
            ... serve traffic ...
    """

    def __init__(self, engine: QueryEngine, interval: float = 1.0) -> None:
        if interval <= 0:
            raise IndexError_(f"interval must be > 0, got {interval}")
        self._engine = engine
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            raise IndexError_("compactor already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="treepi-compactor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Signal the loop and join (waits out an in-flight compaction)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if self._engine.needs_compaction():
                self._engine.compact()

    def __enter__(self) -> "BackgroundCompactor":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
