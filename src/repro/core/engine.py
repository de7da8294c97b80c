"""A thread-safe, caching query engine over a built TreePi index.

:class:`TreePiIndex` is a single-shot pipeline: every ``query()`` call
re-runs partition, filtering and verification from scratch, and
nothing protects concurrent callers from in-flight ``insert``/``delete``
maintenance.  Production substructure search looks different — the same
hot queries arrive over and over, often relabeled, and reads vastly
outnumber writes.  :class:`QueryEngine` adds that serving layer, one
query at a time, as in the paper:

* **Result caching.**  Answers are memoized in an LRU cache of
  isomorphism classes.  Lookup is two-step: a cheap invariant key
  (:func:`query_cache_key`, no search) picks a small bucket, and a hit
  must then be *confirmed* exactly against an entry of that bucket —
  by tree canonical string for trees, by a token-bounded isomorphism
  test otherwise — because equal keys do not imply isomorphism.  So
  isomorphic queries share one entry and non-isomorphic ones never do.
  Any maintenance operation (``insert``/``delete``/``rebuild``)
  invalidates the whole cache; a generation counter guarantees a result
  computed against the pre-mutation index can never be stored afterwards.
* **Concurrency.**  A readers-writer lock lets any number of queries run
  simultaneously while maintenance gets exclusive access.  The engine
  starts no threads of its own: each caller verifies its candidates
  inline (a thread pool over pure-Python matching lost to one thread
  under the GIL).
* **Observability.**  Per-stage counters (:class:`EngineStats`) are kept
  under the engine lock and surfaced through the wrapped index's
  :class:`~repro.core.statistics.IndexStats` as ``stats.engine``.
* **Deadlines.**  :meth:`query` accepts a
  :class:`~repro.core.budget.QueryBudget` whose clock starts before the
  cache key is computed, so it covers keying and hit confirmation too.
  On expiry the call returns a *degraded but sound* result — verified
  matches found so far plus the unresolved candidate ids, flagged
  ``complete=False`` and never cached — instead of letting one
  adversarial verification hold the read lock unboundedly (which, with a
  writer-preferring RW lock, would freeze every other caller behind a
  waiting writer).

The engine never changes answers: every *complete* result is exactly what
the wrapped :meth:`TreePiIndex.query` would return (the differential
suite in ``tests/differential`` locks this down against the scan and
gIndex oracles), and a degraded result's ``matches``/``unresolved`` pair
brackets that exact answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.guards import (
    TrackedLock,
    guarded_by,
    hot_path,
    note_acquire,
    note_release,
)
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.statistics import EngineStats, QueryResult
from repro.core.treepi import QueryPlan, TreePiIndex
from repro.exceptions import BudgetExceeded, IndexError_
from repro.graphs.graph import LabeledGraph
from repro.graphs.isomorphism import CompiledPattern, are_isomorphic
from repro.trees.canonical import tree_canonical_string


def query_cache_key(query: LabeledGraph) -> str:
    """The cache key of a query: a cheap isomorphism invariant, scheme-prefixed.

    The sorted label-pair multiset of the query's
    :class:`~repro.graphs.matcher_index.MatcherIndex` plus its sorted
    degree sequence, prefixed ``t:`` for trees and ``g:`` otherwise.  No
    search, O(m log m); the ``MatcherIndex`` is cached on the query, so
    verification reuses it on a miss.

    Isomorphic queries always share a key, but equal keys do **not**
    imply isomorphism (a single-label K3,3 and triangular prism collide),
    so the engine confirms every hit exactly before serving it.
    """
    pairs = ";".join(sorted(map(repr, query.matcher_index().pair_counts.items())))
    degrees = ",".join(map(str, sorted(map(query.degree, query.vertices()))))
    return ("t:" if query.is_tree() else "g:") + pairs + "|" + degrees


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


class _CacheEntry:
    """A query under its cache key, with the answer once one is cached.

    An entry that carries no result is a lookup probe.  :meth:`same_class`
    is the exact confirmation of a key match and runs outside the
    engine's mutex: trees compare their polynomial canonical strings
    (each computed lazily, at most once per entry), other graphs run a
    token-bounded isomorphism test with the probe's query compiled once
    for the whole bucket.
    """

    __slots__ = ("key", "query", "result", "_tree_string", "_compiled")

    def __init__(self, key: str, query: LabeledGraph) -> None:
        self.key = key
        self.query = query
        self.result: Optional[QueryResult] = None
        self._tree_string: Optional[str] = None
        self._compiled: Optional[CompiledPattern] = None

    def tree_string(self) -> str:
        # Racing threads compute the same string; either write is fine.
        if self._tree_string is None:
            self._tree_string = tree_canonical_string(self.query)
        return self._tree_string

    def compiled(self) -> CompiledPattern:
        # Racing threads compile the same tables; either write is fine.
        if self._compiled is None:
            self._compiled = CompiledPattern(self.query)
        return self._compiled

    def same_class(
        self, other: "_CacheEntry", token: Optional[CancellationToken]
    ) -> bool:
        """Is ``other``'s query isomorphic to this one?  (Same key assumed.)

        Equal keys mean equal label-pair counts, so the matcher's
        label-pair refutation never rejects a bucket entry: compiling
        before it wastes nothing.
        """
        if self.key.startswith("t:"):
            return self.tree_string() == other.tree_string()
        return are_isomorphic(
            self.query, other.query, token=token, compiled=self.compiled()
        )


def _confirm(
    probe: _CacheEntry,
    entries: Sequence[_CacheEntry],
    token: Optional[CancellationToken],
) -> Tuple[Optional[_CacheEntry], bool]:
    """``(entry isomorphic to the probe or None, whether all were checked)``.

    A budget that runs out mid-confirmation stops the scan: the probe
    counts as unmatched, and the ``False`` flag tells the caller it may
    not cache the probe's answer as a new isomorphism class.
    """
    try:
        for entry in entries:
            if probe.same_class(entry, token):
                return entry, True
    except BudgetExceeded:
        return None, False
    return None, True


class _ResultCache:
    """A size-bounded LRU of isomorphism classes, bucketed by cache key.

    ``capacity`` counts entries, and no two entries are isomorphic, so it
    bounds distinct isomorphism classes.  Not internally synchronized —
    the engine guards every access with its own mutex and hands buckets
    out as tuple snapshots for confirmation outside it.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._lru: "OrderedDict[_CacheEntry, None]" = OrderedDict()
        self._buckets: Dict[str, List[_CacheEntry]] = {}

    def bucket(self, key: str) -> Tuple[_CacheEntry, ...]:
        return tuple(self._buckets.get(key, ()))

    def touch(self, entry: _CacheEntry) -> None:
        if entry in self._lru:
            self._lru.move_to_end(entry)

    def put(self, entry: _CacheEntry) -> None:
        if self.capacity <= 0:
            return
        self._buckets.setdefault(entry.key, []).append(entry)
        self._lru[entry] = None
        while len(self._lru) > self.capacity:
            evicted, _ = self._lru.popitem(last=False)
            bucket = self._buckets[evicted.key]
            bucket.remove(evicted)
            if not bucket:
                del self._buckets[evicted.key]

    def clear(self) -> None:
        self._lru.clear()
        self._buckets.clear()

    def __len__(self) -> int:
        return len(self._lru)


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
        Retired; to be deleted once no caller passes it.  Only ``1`` is
        accepted, and it changes nothing: candidates are verified inline.
    """

    def __init__(
        self,
        index: TreePiIndex,
        cache_size: int = 128,
        verify_workers: int = 1,
    ) -> None:
        if cache_size < 0:
            raise IndexError_(f"cache_size must be >= 0, got {cache_size}")
        if verify_workers != 1:
            raise IndexError_(
                "verify_workers must be 1: the verification pool was removed, "
                f"got {verify_workers}"
            )
        self._index = index
        # Lock order is _rw -> _mutex (never the reverse); the guards
        # tracker verifies that discipline under REPRO_CONTRACTS=1.
        self._rw = ReadWriteLock("QueryEngine._rw")
        self._mutex = TrackedLock("QueryEngine._mutex")
        self._cache = _ResultCache(cache_size)
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
        immutable snapshots (see :mod:`repro.storage.posting`), so
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

        ``budget`` bounds the call (deadline and/or work caps) from before
        the cache key is computed; on expiry a degraded-but-sound result
        comes back (``complete=False``, never cached — see
        :mod:`repro.core.budget`).  A confirmed cached *complete* result
        may serve a budgeted call: it is exact, which is strictly better
        than the degradation contract requires.
        """
        token = budget.start() if budget is not None else None
        # With caching off nothing reads the key, so skip computing it.
        probe = (
            _CacheEntry(query_cache_key(query), query) if self._caching else None
        )
        cached, generation, checked = self._cache_lookup(probe, token)
        if cached is not None:
            self._count_degradation(cached, token)  # confirmation work
            return cached
        with self._rw.read_locked():
            result = self._execute(query, token)
        self._count_degradation(result, token)
        self._cache_store(probe, result, generation, checked)
        return result

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

        The expensive build (mining + feature materialization) runs under
        the *read* lock, concurrently with queries — holding the writer
        lock across it would stall every reader for the whole build
        (REPRO202).  The writer lock is taken only for the swap; if
        maintenance raced the build (generation moved), the stale build is
        discarded and retried against the new database state.
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
        self, probe: Optional[_CacheEntry], token: Optional[CancellationToken]
    ) -> Tuple[Optional[QueryResult], int, Optional[Tuple[_CacheEntry, ...]]]:
        """Count the query; return ``(result, generation, checked)``.

        The probe key's bucket is snapshotted under the mutex and
        confirmed outside it.  ``result`` is the confirmed cached answer
        or ``None``; on a miss ``checked`` holds the entries the probe was
        proven non-isomorphic to, or is ``None`` when its answer may not
        be stored (caching off, or the budget cut confirmation short).
        """
        with self._mutex:
            generation = self._generation
            bucket = self._cache.bucket(probe.key) if probe is not None else ()
            if not bucket:
                self._counters.queries += 1
                self._counters.cache_misses += 1
                return None, generation, (() if self._caching else None)
        entry, checked_all = _confirm(probe, bucket, token)
        with self._mutex:
            self._counters.queries += 1
            if entry is None:
                self._counters.cache_misses += 1
            else:
                self._counters.cache_hits += 1
                self._cache.touch(entry)
        if entry is not None:
            return entry.result, generation, None
        return None, generation, (bucket if checked_all else None)

    def _cache_store(
        self,
        probe: Optional[_CacheEntry],
        result: QueryResult,
        generation: int,
        checked: Optional[Tuple[_CacheEntry, ...]],
    ) -> None:
        """Memoize ``result`` unless the index changed since it started.

        Degraded results (``complete=False``) are *never* stored: their
        answer depends on the budget that produced them, and caching one
        would let a timeout masquerade as the exact answer for every
        later (possibly unbudgeted) isomorphic query.  The probe is known
        to be non-isomorphic to every entry in ``checked``; if any other
        entry joined its bucket meanwhile (a concurrent caller's store,
        possibly of the same class) the store is skipped, so the cache
        never holds two entries of one isomorphism class.
        """
        if probe is None or checked is None or not result.complete:
            return
        # A private copy: the caller may mutate its graph afterwards.  The
        # compiled tables describe the caller's graph, so they go too.
        probe.query = probe.query.copy()
        probe._compiled = None
        probe.result = result
        with self._mutex:
            if self._generation != generation:
                return
            if any(entry not in checked for entry in self._cache.bucket(probe.key)):
                return
            self._cache.put(probe)

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
        self, result: QueryResult, token: Optional[CancellationToken]
    ) -> None:
        """Fold one budgeted call's work ledger and degradation into the counters.

        ``verify_steps`` accumulates the token's exact work total whether
        or not the call degraded — the engine-level twin of
        :attr:`~repro.core.budget.CancellationToken.work_charged`.  A
        call counts as degraded only if it handed back a degraded
        result: a search that crosses the work cap in its final,
        non-raising flush expires the token but has already answered
        exactly.
        """
        if token is None:
            return
        steps = token.work_charged
        if result.complete and not steps:
            return
        with self._mutex:
            self._counters.verify_steps += steps
            if not result.complete:
                self._counters.degraded_results += 1
                self._counters.unresolved_candidates += len(result.unresolved)

    @hot_path
    @guarded_by("_rw", mode="read")
    def _execute(
        self, query: LabeledGraph, token: Optional[CancellationToken]
    ) -> QueryResult:
        """Run one query's pipeline (caller holds the read lock)."""
        plan = self._index.plan(query, token=token)
        if plan.result is None:
            self._count_pipeline(plan)
        return self._index.run(plan, token=token)
