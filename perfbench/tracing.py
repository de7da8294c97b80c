"""In-memory span tracing around the public entry point of each layer.

The benchmark never edits the program: :func:`instrumented` swaps the
module attributes the query/maintenance path calls through for wrappers
that record one span per call, and restores the originals on exit.  A
span is ``[name, op, parent, start, end, info]``: ``op`` is the id of the
benchmark operation that caused it (every span of one query shares it),
``parent`` indexes the enclosing span (-1 for a root), and ``info`` is a
small value taken from the call's arguments or result *after* the clock
stopped (candidate counts, accept/reject, ...).

Self time is a span's duration minus the durations of its direct
children, so the per-layer numbers add up instead of double counting.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

Info = Optional[Callable[[tuple, Any], Any]]


class Tracer:
    """Spans of one traced pass, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = -1

    def wrap(self, name: str, fn: Callable, info: Info = None,
             consume: bool = False) -> Callable:
        """``fn`` recording a span per call; ``consume`` drains a generator
        inside the span so its work is timed where it happens."""
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return iter(result) if consume else result

        return traced

    @contextmanager
    def root(self, name: str, op: int) -> Iterator[list]:
        """The benchmark's own span around one operation."""
        self.op = op
        span = [name, op, -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter()
        try:
            yield span
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Per-span duration minus the summed durations of its children."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[4] - s[3]
        return own

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (name, op, parent, start, end, info)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span, default=repr) + "\n")


def _key_kind(args: tuple, key: str) -> str:
    return "tree" if key.startswith("t:") else "graph"


def _plan_info(args: tuple, plan: Any) -> Dict[str, Any]:
    source = plan.result if plan.result is not None else plan
    return {
        "partition_s": source.phase_seconds.get("partition", 0.0),
        "tp_size": source.partition_size,
        "sfq_size": source.sfq_size,
    }


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Route the layer entry points through ``tracer`` for the ``with`` body.

    Functions are patched where their caller looks them up: names that
    ``repro.core.treepi`` imported are patched in that module, so the
    sequential-scan oracle (which imports the matcher itself) stays
    untraced.
    """
    from repro.core import engine, treepi
    from repro.core.treepi import TreePiIndex
    from repro.storage.posting import PostingList
    from repro.storage.segments import SegmentStore

    patches = [
        (engine, "query_cache_key", "engine.cache_key", _key_kind, False),
        (TreePiIndex, "plan", "plan", _plan_info, False),
        (treepi, "run_partitions", "partition.rp", None, False),
        (PostingList, "intersect_many", "storage.intersect_many", None, False),
        (PostingList, "intersect", "storage.intersect", None, False),
        (treepi, "filter_candidates", "filter",
         lambda a, out: len(out.candidates), False),
        (treepi, "center_prune", "center_prune",
         lambda a, report: (len(a[1]), len(report.survivors)), False),
        (TreePiIndex, "verify", "verify", lambda a, ok: bool(ok), False),
        (treepi, "is_subgraph_isomorphic", "verify.direct", None, False),
        (treepi, "verify_candidate", "verify.reconstruct", None, False),
        (TreePiIndex, "insert", "index.insert", None, False),
        (treepi, "subgraph_monomorphisms", "mining.insert_embed", None, True),
        (SegmentStore, "flush", "storage.flush", None, False),
    ]
    saved = []
    try:
        for owner, attr, name, info, consume in patches:
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = tracer.wrap(name, fn, info, consume)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            saved.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer, queries: int, inserts: int) -> Dict[str, float]:
    """Per-layer self time and counts of one traced pass.

    ``*_ms`` layer totals are per timed query (so they add up to the mean
    query latency); ``cache_key_{graph,tree}_ms``, ``accept_ms``,
    ``reject_ms`` and ``flush_ms`` are per call, ``insert_embed_ms`` per
    insert.
    """
    spans = tracer.spans
    own = tracer.self_times()
    self_ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span, seconds in zip(spans, own):
        self_ms[span[0]] += 1000.0 * seconds
        calls[span[0]] += 1

    def per_query(*names: str) -> float:
        return sum(self_ms[n] for n in names) / max(1, queries)

    def mean_ms(chosen: List[list]) -> float:
        if not chosen:
            return 0.0
        return 1000.0 * sum(s[4] - s[3] for s in chosen) / len(chosen)

    def named(name: str, info: Any = None) -> List[list]:
        return [s for s in spans
                if s[0] == name and (info is None or s[5] == info)]

    plans = named("plan")
    stage1 = sum(
        s[4] - s[3] for s in named("storage.intersect_many")
        if s[2] >= 0 and spans[s[2]][0] == "plan"
    )
    rp = sum(s[4] - s[3] for s in named("partition.rp"))
    partition = sum(s[5]["partition_s"] for s in plans)
    pruned = [s[5] for s in named("center_prune")]
    pruned_in = sum(p[0] for p in pruned)
    verifies = named("verify")
    accepts = named("verify", True)
    filters = named("filter")
    return {
        "engine.cache_key_ms": per_query("engine.cache_key"),
        "engine.cache_key_graph_ms": mean_ms(named("engine.cache_key", "graph")),
        "engine.cache_key_tree_ms": mean_ms(named("engine.cache_key", "tree")),
        "partition.rp_ms": per_query("partition.rp"),
        "partition.augment_ms": 1000.0 * (partition - rp - stage1) / max(1, queries),
        "partition.tp_size": _mean([p[5]["tp_size"] for p in plans]),
        "partition.sfq_size": _mean([p[5]["sfq_size"] for p in plans]),
        "storage.intersect_ms": per_query("storage.intersect", "storage.intersect_many"),
        "storage.intersect_calls": calls["storage.intersect"] + calls["storage.intersect_many"],
        "filter.ms": per_query("filter"),
        "filter.candidates_out": _mean([s[5] for s in filters]),
        "center_prune.ms": per_query("center_prune"),
        "center_prune.survivor_ratio": (
            sum(p[1] for p in pruned) / pruned_in if pruned_in else 0.0
        ),
        "verify.ms": per_query("verify", "verify.direct", "verify.reconstruct"),
        "verify.calls": len(verifies),
        "verify.match_ratio": len(accepts) / len(verifies) if verifies else 0.0,
        "verify.accept_ms": mean_ms(accepts),
        "verify.reject_ms": mean_ms(named("verify", False)),
        "verify.direct_calls": calls["verify.direct"],
        "verify.reconstruct_calls": calls["verify.reconstruct"],
        "mining.insert_embed_ms": (
            self_ms["mining.insert_embed"] / inserts if inserts else 0.0
        ),
        "storage.flush_ms": mean_ms(named("storage.flush")),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
