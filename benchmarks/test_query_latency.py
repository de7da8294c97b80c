"""Query-latency tail bench: matcher prefilters vs the unfiltered worst case.

Runs one adversarial subgraph query — an odd cycle against single-label
bipartite grids, where an unfiltered matcher must exhaust a huge path
space to prove non-containment — repeatedly through two engines:

* the default configuration (matcher prefilters on), where the
  walk-parity invariant, which the search switches on once it has
  exhausted more levels than the cycle has vertices, refutes the
  instance exactly in well under the deadline, and
* ``matcher_prefilters=False``, which preserves the pre-prefilter worst
  case a wall-clock deadline exists to bound.

The prefiltered engine runs one untimed warm-up query, then
``GATED_ROUNDS`` timed rounds per mode; the unfiltered engine runs the
scale's ``ROUNDS_BY_SCALE``.  Records p50/p95/p99 latency per pipeline
stage (``lookup``/``partition``/``filter``/``verification``) plus
end-to-end, and emits
``bench_results/BENCH_query_latency.json`` (uploaded as a CI artifact).

Regression gates, checked against the *committed* artifact before it is
overwritten:

* the default engine's verification-stage p99 must not regress past the
  committed p99 (modulo a noise margin) — the prefilter speedup stays,
* deadline-degraded rounds must not exceed the committed count (zero
  since the prefilters landed; 7/7 before),
* the unfiltered engine keeps the old contract: every bounded round
  degrades and the bounded tail stays within 5x the deadline.
"""

import json
import statistics
import time

from repro.bench import output_dir
from repro.core import QueryBudget, QueryEngine, TreePiConfig, TreePiIndex
from repro.graphs import GraphDatabase, LabeledGraph
from repro.mining import SupportFunction

DEADLINE_MS = 50.0
#: Rounds of the unfiltered reference engine, about half a second each
#: without a deadline.
ROUNDS_BY_SCALE = {"tiny": 7, "small": 20, "medium": 50}
#: Rounds of the prefiltered engine, about a millisecond each, at every
#: scale: ten samples lie beyond their p99, so the gate reads a
#: percentile, not the single slowest round.
GATED_ROUNDS = 1000

#: Tolerance applied to the committed verification p99 before gating:
#: the stage now runs in fractions of a millisecond, where scheduler
#: noise dominates, so the gate allows 1.5x the committed figure plus a
#: 2 ms absolute floor before it fails the run.
P99_MARGIN_FACTOR = 1.5
P99_MARGIN_MS = 2.0


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


def _percentiles(samples):
    ordered = sorted(samples)

    def pick(q):
        if not ordered:
            return 0.0
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    return {
        "p50": round(statistics.median(ordered), 3),
        "p95": round(pick(0.95), 3),
        "p99": round(pick(0.99), 3),
        "max": round(ordered[-1], 3),
    }


def _run_mode(engine, query, rounds, budget=None):
    totals, degraded = [], 0
    stages = {}
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = engine.query(query, budget=budget)
        totals.append((time.perf_counter() - t0) * 1000.0)
        assert result.matches == frozenset()  # no odd cycle fits a grid
        if not result.complete:
            degraded += 1
        for stage, seconds in result.phase_seconds.items():
            stages.setdefault(stage, []).append(seconds * 1000.0)
    return {
        "rounds": rounds,
        "degraded": degraded,
        "total_ms": _percentiles(totals),
        "stage_ms": {
            stage: _percentiles(samples)
            for stage, samples in sorted(stages.items())
        },
    }


def _build_engine(db, prefilters):
    config = TreePiConfig(
        SupportFunction(1, 2.0, 2),
        gamma=1.1,
        matcher_prefilters=prefilters,
        seed=5,
    )
    # cache_size=0: every round must pay the full pipeline, and degraded
    # results are never cached anyway — keep all modes comparable.
    return QueryEngine(TreePiIndex.build(db, config), cache_size=0)


def _load_committed_baseline(path):
    """The previously committed artifact's gate figures, if present."""
    if not path.exists():
        return None
    try:
        prior = json.loads(path.read_text())
        return {
            "verification_p99_ms": prior["no_deadline"]["stage_ms"][
                "verification"
            ]["p99"],
            "deadline_degraded": prior["deadline"]["degraded"],
            "deadline_rounds": prior["deadline"]["rounds"],
        }
    except (ValueError, KeyError):
        return None  # unreadable/foreign artifact: report, don't gate


def test_query_latency_tail(scale):
    rounds = ROUNDS_BY_SCALE.get(scale.name, 20)
    db = GraphDatabase([_grid(6, 6) for _ in range(4)])
    query = _odd_cycle(9)

    out = output_dir() / "BENCH_query_latency.json"
    baseline = _load_committed_baseline(out)

    # --- default engine: matcher prefilters on -------------------------
    engine = _build_engine(db, prefilters=True)
    # Untimed warm-up: the first query's search switches walk parity on
    # and builds the grids' parity matrices, a one-off cost no later
    # round pays (each later search switches on again, but reuses them).
    engine.query(query)
    unbounded = _run_mode(engine, query, GATED_ROUNDS)
    bounded = _run_mode(
        engine, query, GATED_ROUNDS, budget=QueryBudget(deadline_ms=DEADLINE_MS)
    )

    # --- reference engine: prefilters off (the old worst case) ---------
    slow_engine = _build_engine(db, prefilters=False)
    slow_unbounded = _run_mode(slow_engine, query, rounds)
    slow_bounded = _run_mode(
        slow_engine, query, rounds, budget=QueryBudget(deadline_ms=DEADLINE_MS)
    )

    # The unfiltered instance keeps its teeth: every bounded round
    # degrades, and the deadline bounds the tail.
    assert slow_unbounded["total_ms"]["p50"] > DEADLINE_MS
    assert slow_bounded["degraded"] == rounds
    assert slow_bounded["total_ms"]["p99"] < 5 * DEADLINE_MS

    # The prefiltered engine refutes the same instance exactly — no
    # round may degrade, with or without the deadline.
    assert unbounded["degraded"] == 0
    assert bounded["degraded"] == 0
    assert bounded["total_ms"]["p99"] < 5 * DEADLINE_MS

    # Gates against the committed artifact (read before overwriting).
    if baseline is not None:
        ver_p99 = unbounded["stage_ms"]["verification"]["p99"]
        ceiling = (
            baseline["verification_p99_ms"] * P99_MARGIN_FACTOR + P99_MARGIN_MS
        )
        assert ver_p99 <= ceiling, (
            f"verification p99 regressed: {ver_p99:.3f}ms vs committed "
            f"{baseline['verification_p99_ms']:.3f}ms (ceiling {ceiling:.3f}ms)"
        )
        if baseline["deadline_rounds"] == GATED_ROUNDS:
            assert bounded["degraded"] <= baseline["deadline_degraded"], (
                f"deadline-degraded rounds regressed: {bounded['degraded']} "
                f"vs committed {baseline['deadline_degraded']}"
            )

    stats = engine.stats
    report = {
        "bench": "query_latency",
        "scale": scale.name,
        "deadline_ms": DEADLINE_MS,
        "query": "C9 odd cycle vs 4x single-label 6x6 grids",
        "gated_against": baseline,
        "no_deadline": unbounded,
        "deadline": bounded,
        "no_prefilter": {
            "no_deadline": slow_unbounded,
            "deadline": slow_bounded,
        },
        "engine_stats": {
            "degraded_results": stats.degraded_results,
            "unresolved_candidates": stats.unresolved_candidates,
            "verify_steps": stats.verify_steps,
        },
    }
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\nquery latency tail ({GATED_ROUNDS} prefiltered / {rounds} "
        f"unfiltered rounds, deadline {DEADLINE_MS}ms)"
    )
    modes = [
        ("prefilter", unbounded),
        ("prefilter+ddl", bounded),
        ("unfiltered", slow_unbounded),
        ("unfiltered+ddl", slow_bounded),
    ]
    for name, mode in modes:
        tail = mode["total_ms"]
        print(
            f"  {name:>14}: p50 {tail['p50']:8.2f}ms  "
            f"p95 {tail['p95']:8.2f}ms  p99 {tail['p99']:8.2f}ms  "
            f"({mode['degraded']}/{mode['rounds']} degraded)"
        )
    print("  stage p99 (prefilter, no deadline):")
    for stage, tail in unbounded["stage_ms"].items():
        print(f"    {stage:>14}: {tail['p99']:8.3f}ms")
    print(f"  wrote {out}")
