"""Scatter-gather query serving over K disjoint shards.

:class:`ShardedEngine` is the tier that turns one
:class:`~repro.core.engine.QueryEngine` into a horizontally scalable
system.  The database is partitioned by a
:class:`~repro.serving.router.ShardRouter`; each non-empty shard gets
its own engine (built with the ordinary ``workers=N`` process-pool
machinery); a query fans out to every shard on a thread pool and the
per-shard :class:`~repro.core.statistics.QueryResult`\\ s merge by
union.  Because the shards are disjoint, the union of per-shard
answers *is* the exact answer — the merge layer introduces no
approximation, which is what the K-sweep differential suite pins down.

Degradation contract (the serving tier's core promise):

* A :class:`~repro.core.budget.QueryBudget` is started independently
  per shard, so ``deadline_ms`` bounds each shard's pipeline.  The
  gather waits at most deadline + grace for each shard.
* A shard that degrades contributes its own unresolved bracket; a
  shard that times out at the gather or raises contributes its *full
  shard universe* as unresolved.  Either way the merged result
  satisfies ``matches ⊆ exact ⊆ matches ∪ unresolved`` and
  ``degraded_reason`` names every shard that missed.
* Admission control runs before any dispatch: past the in-flight cap
  the call is either refused (:class:`~repro.exceptions.
  AdmissionError`, ``admission="reject"``) or answered immediately
  with a fully-unresolved degraded result (``admission="degrade"``).

Lock discipline (REPRO_CONTRACTS-tracked, same shape as the single
engine): the tier's writer-preferring ``_rw`` is held for *read*
during scatter **and** during ``insert``/``delete`` — per-shard
engines serialize their own mutations — and for *write* only during
rebalance, which must move graphs across shards atomically with
respect to queries.  ``_mutex`` guards the routing table, counters and
admission state; no blocking shard work ever runs under it.  Order:
``_rw -> _mutex``, tier locks strictly before any shard engine's.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import replace
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.contracts import ContractViolation
from repro.analysis.guards import TrackedLock, guarded_by
from repro.core.budget import QueryBudget
from repro.core.engine import QueryEngine, ReadWriteLock
from repro.core.statistics import EngineStats, QueryResult
from repro.core.treepi import TreePiConfig, TreePiIndex
from repro.exceptions import AdmissionError, ConfigError, IndexError_, ReproError
from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.serving.faults import FaultPolicy
from repro.serving.router import ShardMove, ShardRouter
from repro.serving.stats import ShardedStats, TierCounters

#: Last-resort join bound for deadline-free queries.  A shard thread
#: wedged by a lock bug or a runaway backend surfaces as a shard
#: timeout (full-universe unresolved bracket) instead of hanging the
#: serving thread indefinitely.
_UNBOUNDED_GATHER_CAP_S = 300.0


class _ShardOutcome(NamedTuple):
    """What the gather observed for one shard's dispatch."""

    shard_id: int
    status: str  # "ok" | "timeout" | "fault"
    results: Optional[List[QueryResult]]
    error: Optional[BaseException]


class ShardedEngine:
    """Scatter-gather serving over per-shard :class:`QueryEngine`\\ s.

    Parameters
    ----------
    database:
        Corpus to partition.  The graphs are shared (not copied) into
        per-shard databases under their existing global ids; the input
        container itself is left untouched.
    config:
        Build/query knobs for every shard index (``config.workers``
        parallelizes each shard's build, exactly as a single build).
    num_shards:
        K ≥ 1.  ``K=1`` is a working degenerate case the differential
        suite uses to pin the tier to the single engine.
    cache_size / verify_workers:
        Forwarded to every per-shard engine.
    max_in_flight:
        Admission cap on concurrently executing ``query``/
        ``query_batch`` calls; ``None`` admits everything.
    admission:
        ``"degrade"`` answers an over-cap call immediately with a sound
        fully-unresolved result; ``"reject"`` raises
        :class:`~repro.exceptions.AdmissionError` instead.
    rebalance_ratio:
        Insert-skew trigger: after an insert, if ``max/min`` shard size
        reaches this ratio a rebalance runs (``None`` disables).
    rebalance_mode:
        ``"inline"`` rebalances on the inserting caller's thread;
        ``"background"`` hands the round to a daemon thread (at most
        one pending at a time).
    router_seed:
        Placement-hash seed (defaults to ``config.seed``).
    fault_policy:
        Dispatch-time hook for fault injection; production default is
        the no-op :class:`~repro.serving.faults.FaultPolicy`.
    gather_grace_ms:
        Extra wall-clock the gather grants each shard beyond the
        budget's deadline before declaring a shard timeout.
    """

    def __init__(
        self,
        database: GraphDatabase,
        config: TreePiConfig,
        num_shards: int,
        *,
        cache_size: int = 128,
        verify_workers: int = 1,
        max_in_flight: Optional[int] = None,
        admission: str = "degrade",
        rebalance_ratio: Optional[float] = None,
        rebalance_mode: str = "inline",
        router_seed: Optional[int] = None,
        fault_policy: Optional[FaultPolicy] = None,
        gather_grace_ms: float = 250.0,
    ) -> None:
        self._init_tier(
            config,
            num_shards,
            cache_size=cache_size,
            verify_workers=verify_workers,
            max_in_flight=max_in_flight,
            admission=admission,
            rebalance_ratio=rebalance_ratio,
            rebalance_mode=rebalance_mode,
            router_seed=router_seed,
            fault_policy=fault_policy,
            gather_grace_ms=gather_grace_ms,
        )
        ids = database.graph_ids()
        self._next_id = (max(ids) + 1) if ids else 0
        shard_dbs: Dict[int, GraphDatabase] = {
            sid: GraphDatabase() for sid in range(num_shards)
        }
        for gid in ids:
            sid = self._router.assign(gid)
            shard_dbs[sid].add(database[gid], graph_id=gid)
        # Pre-build balance: hash placement can leave a small corpus
        # skewed or a shard empty; rebalancing the routing table before
        # any index exists moves bookkeeping, not built features.
        plan = self._router.rebalance_plan()
        for move in plan:
            graph = shard_dbs[move.src].remove(move.graph_id)
            shard_dbs[move.dst].add(graph, graph_id=move.graph_id)
        self._router.apply(plan)
        for sid in range(num_shards):
            if len(shard_dbs[sid]) == 0:
                self._engines[sid] = None
            else:
                self._engines[sid] = QueryEngine(
                    TreePiIndex.build(shard_dbs[sid], config),
                    cache_size=cache_size,
                    verify_workers=verify_workers,
                )

    def _init_tier(
        self,
        config: TreePiConfig,
        num_shards: int,
        *,
        cache_size: int = 128,
        verify_workers: int = 1,
        max_in_flight: Optional[int] = None,
        admission: str = "degrade",
        rebalance_ratio: Optional[float] = None,
        rebalance_mode: str = "inline",
        router_seed: Optional[int] = None,
        fault_policy: Optional[FaultPolicy] = None,
        gather_grace_ms: float = 250.0,
    ) -> None:
        """Validate knobs and set up all tier state except shard engines.

        Shared by the building constructor and :meth:`open_segments`
        (which attaches engines loaded from v3 segment directories
        instead of building them); the routing table starts empty either
        way and is populated by the caller.
        """
        if admission not in ("reject", "degrade"):
            raise ConfigError(
                f'admission must be "reject" or "degrade", got {admission!r}'
            )
        if rebalance_mode not in ("inline", "background"):
            raise ConfigError(
                'rebalance_mode must be "inline" or "background", '
                f"got {rebalance_mode!r}"
            )
        if max_in_flight is not None and max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1 or None, got {max_in_flight}"
            )
        if rebalance_ratio is not None and rebalance_ratio < 1.0:
            raise ConfigError(
                f"rebalance_ratio must be >= 1.0 or None, got {rebalance_ratio}"
            )
        if gather_grace_ms < 0:
            raise ConfigError(
                f"gather_grace_ms must be >= 0, got {gather_grace_ms}"
            )
        self._num_shards = num_shards
        self._config = config
        self._cache_size = cache_size
        self._verify_workers = verify_workers
        self._max_in_flight = max_in_flight
        self._admission = admission
        self._rebalance_ratio = rebalance_ratio
        self._rebalance_mode = rebalance_mode
        self._fault_policy = (
            fault_policy if fault_policy is not None else FaultPolicy()
        )
        self._grace = gather_grace_ms / 1000.0
        # Lock order: _rw -> _mutex, and tier locks strictly before any
        # shard engine's (the guards tracker checks this under
        # REPRO_CONTRACTS=1; shard engines never call back into the tier).
        self._rw = ReadWriteLock("ShardedEngine._rw")
        self._mutex = TrackedLock("ShardedEngine._mutex")
        seed = router_seed if router_seed is not None else config.seed
        # The object is not published yet, but this helper also runs
        # from ``open_segments`` (not ``__init__``), so the guarded
        # fields are initialized under their declared mutex.
        with self._mutex:
            self._router = ShardRouter(num_shards, seed=seed)
            self._counters = TierCounters()
            self._in_flight = 0
            self._rebalance_pending = False
            self._rebalance_thread: Optional[threading.Thread] = None
            self._next_id = 0
            self._engines: Dict[int, Optional[QueryEngine]] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._num_shards

    def __len__(self) -> int:
        with self._mutex:
            return len(self._router)

    def graph_ids(self) -> List[int]:
        """Every served graph id, sorted (a routing-table snapshot)."""
        with self._mutex:
            ids = self._router.all_ids()
        return ids

    def shard_sizes(self) -> Dict[int, int]:
        """``shard id -> graph count`` for every shard."""
        with self._mutex:
            sizes = self._router.sizes()
        return sizes

    def shard_of(self, graph_id: int) -> int:
        """The shard currently serving ``graph_id``."""
        with self._mutex:
            return self._router.locate(graph_id)

    def skew(self) -> float:
        """Current ``max/min`` shard-size ratio (the rebalance metric)."""
        with self._mutex:
            value = self._router.skew()
        return value

    @property
    def in_flight(self) -> int:
        """Queries currently admitted and not yet finished."""
        with self._mutex:
            return self._in_flight

    @property
    def stats(self) -> ShardedStats:
        """Consistent tier + per-shard counter snapshots."""
        with self._mutex:
            tier = self._counters.snapshot()
            engines = sorted(self._engines.items())
        shards: Dict[int, EngineStats] = {}
        for sid, engine in engines:
            shards[sid] = engine.stats if engine is not None else EngineStats()
        return ShardedStats(tier=tier, shards=shards)

    # ------------------------------------------------------------------
    # querying (scatter-gather)
    # ------------------------------------------------------------------
    def query(
        self, query: LabeledGraph, budget: Optional[QueryBudget] = None
    ) -> QueryResult:
        """Answer one query across every shard.

        ``budget`` applies *per shard* (each shard starts its own
        deadline clock); the merged result degrades per the module
        contract instead of ever blocking unboundedly.
        """
        if not self._admit():
            return self._admission_degraded()
        try:
            with self._rw.read_locked():
                results = self._scatter([query], budget, batched=False)
        finally:
            self._release()
        return results[0]

    def query_batch(
        self,
        queries: Sequence[LabeledGraph],
        budget: Optional[QueryBudget] = None,
    ) -> List[QueryResult]:
        """Answer many queries at once (one fan-out, per-shard batching).

        Each shard runs the whole batch through its engine's
        ``query_batch`` — isomorphic-duplicate dedup happens inside
        every shard — and the tier merges position-wise.
        """
        query_list = list(queries)
        if not query_list:
            return []
        if not self._admit():
            return [self._admission_degraded() for _ in query_list]
        try:
            with self._rw.read_locked():
                results = self._scatter(query_list, budget, batched=True)
        finally:
            self._release()
        return results

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert(self, graph: LabeledGraph) -> int:
        """Add ``graph`` under a freshly allocated global id.

        Runs under the tier *read* lock — per-shard engines serialize
        their own mutations, so inserts to different shards proceed
        concurrently with each other and with queries.  May trigger a
        rebalance afterwards (see ``rebalance_ratio``).
        """
        with self._rw.read_locked():
            with self._mutex:
                gid = self._next_id
                self._next_id += 1
                sid = self._router.assign(gid)
                engine = self._engines.get(sid)
                self._counters.inserts += 1
            try:
                if engine is None:
                    self._ensure_engine(sid, graph, gid)
                else:
                    engine.insert(graph, graph_id=gid)
            except ReproError:
                with self._mutex:
                    self._router.remove(gid)
                raise
        self._maybe_rebalance()
        return gid

    def delete(self, graph_id: int) -> None:
        """Remove ``graph_id`` from its shard and the routing table."""
        with self._rw.read_locked():
            with self._mutex:
                sid = self._router.locate(graph_id)
                engine = self._engines.get(sid)
            if engine is None:
                raise IndexError_(
                    f"graph {graph_id} routed to shard {sid}, "
                    "which has no engine"
                )
            engine.delete(graph_id)
            with self._mutex:
                self._router.remove(graph_id)
                self._counters.deletes += 1

    def rebalance(self) -> int:
        """Run one rebalance round now; returns graphs moved.

        Takes the tier write lock: queries and other maintenance wait
        while graphs change shards, so no scatter can observe a graph
        on two shards (or neither).
        """
        with self._rw.write_locked():
            moved = self._rebalance_locked()
        return moved

    def wait_for_rebalance(self, timeout: Optional[float] = None) -> None:
        """Block until any background rebalance round finishes."""
        with self._mutex:
            thread = self._rebalance_thread
        if thread is not None:
            thread.join(timeout)

    # ------------------------------------------------------------------
    # segment persistence (format v3)
    # ------------------------------------------------------------------
    def save_segments(self, root: "Path | str") -> None:
        """Persist the whole tier as per-shard v3 segment directories.

        Writes ``shard-NNN/`` (one segment directory per built shard)
        plus a ``shards.json`` tier manifest recording the shard count,
        router seed, id allocator and config.  Runs under the tier
        *write* lock so no insert/delete/rebalance can interleave with
        the per-shard snapshots — the saved shards are one consistent
        cut of the tier.
        """
        import json
        from pathlib import Path

        from repro.persistence import config_to_json, save_index

        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        with self._rw.write_locked():
            with self._mutex:
                engines = dict(self._engines)
                router_seed = self._router.seed
                next_id = self._next_id
            shards: Dict[str, Optional[str]] = {}
            for sid in range(self._num_shards):
                engine = engines.get(sid)
                if engine is None:
                    shards[str(sid)] = None
                    continue
                name = f"shard-{sid:03d}"
                save_index(engine.index, root / name, version=3)
                shards[str(sid)] = name
            doc = {
                "format": "treepi-shards",
                "version": 1,
                "num_shards": self._num_shards,
                "router_seed": router_seed,
                "next_id": next_id,
                "config": config_to_json(self._config),
                "shards": shards,
            }
        tmp = root / "shards.json.tmp"
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
        import os

        os.replace(tmp, root / "shards.json")

    @classmethod
    def open_segments(
        cls,
        root: "Path | str",
        *,
        cache_size: int = 128,
        verify_workers: int = 1,
        max_in_flight: Optional[int] = None,
        admission: str = "degrade",
        rebalance_ratio: Optional[float] = None,
        rebalance_mode: str = "inline",
        fault_policy: Optional[FaultPolicy] = None,
        gather_grace_ms: float = 250.0,
    ) -> "ShardedEngine":
        """Reopen a tier saved by :meth:`save_segments` without rebuilding.

        Each shard's index memory-maps its segment directory (cold open
        is O(manifest) per shard); the routing table is reconstructed by
        replaying every shard's graph ids as *pinned* assignments, so
        post-rebalance placements survive the round trip exactly.
        """
        import json
        from pathlib import Path

        from repro.exceptions import SerializationError
        from repro.persistence import config_from_json, load_index

        root = Path(root)
        manifest = root / "shards.json"
        try:
            doc = json.loads(manifest.read_text())
        except FileNotFoundError:
            raise SerializationError(f"no tier manifest at {manifest}")
        except json.JSONDecodeError as exc:
            raise SerializationError(f"corrupt tier manifest {manifest}: {exc}")
        if doc.get("format") != "treepi-shards" or doc.get("version") != 1:
            raise SerializationError(
                f"{manifest} is not a v1 treepi-shards manifest "
                f"(format={doc.get('format')!r}, version={doc.get('version')!r})"
            )
        self = cls.__new__(cls)
        self._init_tier(
            config_from_json(doc["config"]),
            int(doc["num_shards"]),
            cache_size=cache_size,
            verify_workers=verify_workers,
            max_in_flight=max_in_flight,
            admission=admission,
            rebalance_ratio=rebalance_ratio,
            rebalance_mode=rebalance_mode,
            router_seed=int(doc["router_seed"]),
            fault_policy=fault_policy,
            gather_grace_ms=gather_grace_ms,
        )
        engines: Dict[int, Optional[QueryEngine]] = {}
        placements: List[Tuple[int, List[int]]] = []
        for sid in range(int(doc["num_shards"])):
            name = doc["shards"].get(str(sid))
            if name is None:
                engines[sid] = None
                continue
            index = load_index(root / name)
            engines[sid] = QueryEngine(
                index,
                cache_size=cache_size,
                verify_workers=verify_workers,
            )
            placements.append((sid, index.database.graph_ids()))
        with self._mutex:
            self._next_id = int(doc["next_id"])
            self._engines.update(engines)
            for sid, gids in placements:
                for gid in gids:
                    self._router.assign(gid, shard=sid)
        return self

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        """Take an in-flight slot; ``False`` means degrade at the door."""
        cap = self._max_in_flight
        rejected = False
        admitted = True
        with self._mutex:
            if cap is not None and self._in_flight >= cap:
                admitted = False
                if self._admission == "reject":
                    self._counters.admission_rejected += 1
                    rejected = True
                else:
                    self._counters.admission_degraded += 1
            else:
                self._in_flight += 1
        if rejected:
            raise AdmissionError(
                f"in-flight cap {cap} reached; retry when load drops"
            )
        return admitted

    def _release(self) -> None:
        with self._mutex:
            self._in_flight -= 1

    def _admission_degraded(self) -> QueryResult:
        """A sound never-dispatched answer: everything unresolved."""
        with self._mutex:
            universe = self._router.all_ids()
        return QueryResult(
            matches=frozenset(),
            complete=False,
            unresolved=frozenset(universe),
            degraded_reason=(
                f"admission: in-flight cap {self._max_in_flight} reached"
            ),
        )

    # ------------------------------------------------------------------
    # scatter / gather / merge
    # ------------------------------------------------------------------
    @guarded_by("_rw", mode="read")
    def _scatter(
        self,
        queries: List[LabeledGraph],
        budget: Optional[QueryBudget],
        batched: bool,
    ) -> List[QueryResult]:
        """Fan ``queries`` to every built shard and merge the answers."""
        with self._mutex:
            engines = [
                (sid, engine)
                for sid, engine in sorted(self._engines.items())
                if engine is not None
            ]
            self._counters.queries += len(queries)
            if batched:
                self._counters.batches += 1
            self._counters.fanouts += len(engines)
        if not engines:
            return [QueryResult(matches=frozenset()) for _ in queries]
        outcomes = self._dispatch_all(engines, queries, budget, batched)
        return self._merge(queries, outcomes)

    def _dispatch_all(
        self,
        engines: List[Tuple[int, QueryEngine]],
        queries: List[LabeledGraph],
        budget: Optional[QueryBudget],
        batched: bool,
    ) -> List[_ShardOutcome]:
        """Run every shard on its own thread and gather with a deadline."""
        deadline_s: Optional[float] = None
        if budget is not None and budget.deadline_ms is not None:
            deadline_s = budget.deadline_ms / 1000.0
        pool = ThreadPoolExecutor(
            max_workers=len(engines), thread_name_prefix="repro-shard"
        )
        try:
            futures = [
                (
                    sid,
                    pool.submit(
                        self._dispatch_one, sid, engine, queries, budget, batched
                    ),
                )
                for sid, engine in engines
            ]
            outcomes = self._gather(futures, deadline_s)
        finally:
            # Never join hung workers: a shard stalled past its deadline
            # must not stall the merge.  The abandoned thread finishes
            # (or sleeps) on its own; its result is simply unused.
            # Queued-but-unstarted shards are cancelled outright so the
            # abandoned pool cannot start new work after the gather.
            pool.shutdown(wait=False, cancel_futures=True)
        faults = sum(1 for o in outcomes if o.status == "fault")
        timeouts = sum(1 for o in outcomes if o.status == "timeout")
        if faults or timeouts:
            with self._mutex:
                self._counters.shard_faults += faults
                self._counters.shard_timeouts += timeouts
        return outcomes

    def _dispatch_one(
        self,
        sid: int,
        engine: QueryEngine,
        queries: List[LabeledGraph],
        budget: Optional[QueryBudget],
        batched: bool,
    ) -> List[QueryResult]:
        """One shard's work, on a pool thread (its budget clock starts
        inside the engine call, so deadlines are truly per-shard)."""
        self._fault_policy.before_query(sid)
        if batched:
            return engine.query_batch(queries, budget=budget)
        return [engine.query(queries[0], budget=budget)]

    def _gather(
        self,
        futures: List[Tuple[int, "Future[List[QueryResult]]"]],
        deadline_s: Optional[float],
    ) -> List[_ShardOutcome]:
        """Collect every shard, never waiting past deadline + grace.

        Even without a client deadline the join is bounded: a wedged
        shard thread (lock bug, runaway backend) must surface as a
        shard timeout, not hang the serving thread forever.
        """
        limit: Optional[float] = None
        if deadline_s is not None:
            limit = time.monotonic() + deadline_s + self._grace
        outcomes: List[_ShardOutcome] = []
        for sid, future in futures:
            if limit is None:
                wait_s = _UNBOUNDED_GATHER_CAP_S
            else:
                wait_s = max(0.0, limit - time.monotonic())
            try:
                payload = future.result(timeout=wait_s)
            except FuturesTimeout:
                future.cancel()
                outcomes.append(_ShardOutcome(sid, "timeout", None, None))
            except Exception as exc:
                if isinstance(exc, ContractViolation):
                    raise  # locking bugs must surface, never degrade away
                outcomes.append(_ShardOutcome(sid, "fault", None, exc))
            else:
                outcomes.append(_ShardOutcome(sid, "ok", payload, None))
        return outcomes

    def _merge(
        self, queries: List[LabeledGraph], outcomes: List[_ShardOutcome]
    ) -> List[QueryResult]:
        """Union per-shard results position-wise; bracket missing shards."""
        ok: List[Tuple[int, List[QueryResult]]] = [
            (o.shard_id, o.results)
            for o in outcomes
            if o.status == "ok" and o.results is not None
        ]
        failed_universe: List[int] = []
        failure_reasons: List[str] = []
        for o in outcomes:
            if o.status == "ok":
                continue
            failed_universe.extend(self._shard_universe(o.shard_id))
            if o.status == "timeout":
                failure_reasons.append(f"shard {o.shard_id}: timeout")
            else:
                failure_reasons.append(
                    f"shard {o.shard_id}: fault({type(o.error).__name__})"
                )
        merged = [
            self._merge_one(
                [(sid, results[i]) for sid, results in ok],
                frozenset(failed_universe),
                failure_reasons,
            )
            for i in range(len(queries))
        ]
        degraded = sum(1 for r in merged if not r.complete)
        if degraded:
            with self._mutex:
                self._counters.degraded_results += degraded
        return merged

    def _merge_one(
        self,
        per_shard: List[Tuple[int, QueryResult]],
        failed_universe: FrozenSet[int],
        failure_reasons: List[str],
    ) -> QueryResult:
        """Merge one query's shard results into one sound answer.

        Shards hold disjoint graph-id sets, so unions never collide;
        ``unresolved`` still subtracts ``matches`` defensively so the
        bracket invariant holds by construction.  Phase timings sum
        (total shard work, not wall-clock); ``partition_size`` /
        ``sfq_size`` take the max since every shard partitions the same
        query.
        """
        matched: Set[int] = set()
        unresolved: Set[int] = set(failed_universe)
        reasons = list(failure_reasons)
        complete = not failure_reasons
        phase: Dict[str, float] = {}
        filtered = pruned = 0
        partition = sfq = 0
        direct = bool(per_shard) and not failure_reasons
        for sid, result in per_shard:
            matched.update(result.matches)
            unresolved.update(result.unresolved)
            if not result.complete:
                complete = False
                reasons.append(
                    f"shard {sid}: {result.degraded_reason or 'degraded'}"
                )
            for key, seconds in result.phase_seconds.items():
                phase[key] = phase.get(key, 0.0) + seconds
            filtered += result.candidates_after_filter
            pruned += result.candidates_after_prune
            partition = max(partition, result.partition_size)
            sfq = max(sfq, result.sfq_size)
            direct = direct and result.direct_hit
        unresolved.difference_update(matched)
        return QueryResult(
            matches=frozenset(matched),
            direct_hit=direct,
            partition_size=partition,
            sfq_size=sfq,
            candidates_after_filter=filtered,
            candidates_after_prune=pruned,
            phase_seconds=phase,
            complete=complete,
            unresolved=frozenset(unresolved),
            degraded_reason="; ".join(reasons) if reasons else None,
        )

    def _shard_universe(self, sid: int) -> List[int]:
        """The graph ids a missing shard must leave unresolved."""
        with self._mutex:
            ids = self._router.ids_on(sid)
        return ids

    # ------------------------------------------------------------------
    # shard lifecycle / rebalancing internals
    # ------------------------------------------------------------------
    def _ensure_engine(
        self, sid: int, graph: LabeledGraph, gid: int
    ) -> None:
        """Build shard ``sid``'s engine around its first graph.

        The (cheap, single-graph) build runs outside the tier mutex and
        installs with a check-and-set; a racing builder routes its
        graph through the winner instead.
        """
        db = GraphDatabase()
        db.add(graph, graph_id=gid)
        built = QueryEngine(
            TreePiIndex.build(db, self._single_graph_config()),
            cache_size=self._cache_size,
            verify_workers=self._verify_workers,
        )
        with self._mutex:
            existing = self._engines.get(sid)
            if existing is None:
                self._engines[sid] = built
        if existing is not None:
            existing.insert(graph, graph_id=gid)

    def _single_graph_config(self) -> TreePiConfig:
        """Build knobs for a one-graph lazy build (no process pool)."""
        if self._config.workers != 1:
            return replace(self._config, workers=1)
        return self._config

    def _maybe_rebalance(self) -> None:
        """Post-insert skew check; runs or schedules a rebalance round."""
        ratio = self._rebalance_ratio
        if ratio is None:
            return
        with self._mutex:
            current = self._router.skew()
            already = self._rebalance_pending
        if current < ratio:
            return
        if self._rebalance_mode == "inline":
            self.rebalance()
            return
        if already:
            return
        with self._mutex:
            if self._rebalance_pending:
                return
            self._rebalance_pending = True
        thread = threading.Thread(
            target=self._background_rebalance,
            name="repro-reshard",
            daemon=True,
        )
        with self._mutex:
            self._rebalance_thread = thread
        thread.start()

    def _background_rebalance(self) -> None:
        try:
            self.rebalance()
        finally:
            with self._mutex:
                self._rebalance_pending = False

    @guarded_by("_rw", mode="write")
    def _rebalance_locked(self) -> int:
        """Move graphs per the router's plan (caller holds the write lock)."""
        with self._mutex:
            plan = self._router.rebalance_plan()
        if not plan:
            return 0
        for move in plan:
            self._move_graph(move)
        with self._mutex:
            self._router.apply(plan)
            self._counters.rebalances += 1
            self._counters.graphs_moved += len(plan)
        return len(plan)

    def _move_graph(self, move: ShardMove) -> None:
        """Relocate one graph between shard engines (write lock held)."""
        with self._mutex:
            src_engine = self._engines.get(move.src)
            dst_engine = self._engines.get(move.dst)
        if src_engine is None:
            raise IndexError_(
                f"rebalance source shard {move.src} has no engine"
            )
        graph = src_engine.index.database[move.graph_id]
        src_engine.delete(move.graph_id)
        if dst_engine is None:
            self._ensure_engine(move.dst, graph, move.graph_id)
        else:
            dst_engine.insert(graph, graph_id=move.graph_id)
