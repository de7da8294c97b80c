"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up ``SETUP_REPEATS`` times (``setup_s`` is the median),
interleaved with timed passes until ``--seconds`` of operations have been
measured, and prints the end-to-end metrics.  ``--trace 1`` sets up once,
runs untraced passes for ``--seconds``, then one traced pass and one more
untraced pass, and prints the per-layer metrics with the tracing overhead;
its spans go to ``.perfbench/<workload>-seed<seed>.spans.jsonl``.  Both
modes also write every metric they computed to
``.perfbench/<workload>-seed<seed>-trace<t>.json``, including the query
metrics in plain (unscaled) seconds, which are not printed.

Query latencies are reported in reference milliseconds (``ref_ms``), scaled
by a fixed kernel timed alongside them, so that the machine's own changes
of speed cancel out; see ``calibration.py``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is 0 only when every answer matched the sequential scan.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from tracing import Tracer, instrumented, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Computed metrics that BENCHMARK.json does not list: the query metrics in
# plain units, written to the .perfbench report only.
PLAIN_UNITS = {"query_qps": "1/s", "query_p50_ms": "ms", "query_p95_ms": "ms"}


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _measure(workload, seconds: float, setups_wanted: int) -> Tuple[List, List]:
    """Alternate set-ups with timed passes until both quotas are met.

    After the k-th of ``setups_wanted`` set-ups, passes run until k/n of
    ``seconds`` of operation time has been measured, so set-up and query
    timings are both spread over the whole run rather than bunched into
    one stretch of it.
    """
    setups: List[Dict[str, float]] = []
    passes: List = []
    measured = 0.0
    while len(setups) < setups_wanted or measured < seconds:
        gc.collect()
        setups.append(workload.setup())
        if len(setups) == 1:
            workload.prepare()
        workload.attach()
        quota = seconds * min(1.0, len(setups) / setups_wanted)
        while measured < quota:
            gc.collect()
            passes.append(workload.run_pass())
            measured += passes[-1].total_seconds()
    return setups, passes


def _samples(passes: List, kind: str, scaled: bool = False) -> List[float]:
    return [s for p in passes
            for s in (p.scaled if scaled else p.latencies)[kind]]


def _timing(passes: List) -> Dict[str, float]:
    queries = _samples(passes, "query")
    ref = _samples(passes, "query", scaled=True)
    last = passes[-1].counts
    ms = 1000.0
    out = {
        "query_qps_ref": len(ref) / sum(ref),
        "query_p50_ref_ms": ms * _percentile(ref, 0.50),
        "query_p95_ref_ms": ms * _percentile(ref, 0.95),
        "query_qps": len(queries) / sum(queries),
        "query_p50_ms": ms * _percentile(queries, 0.50),
        "query_p95_ms": ms * _percentile(queries, 0.95),
        "index_bytes_per_graph": last["index_bytes_per_graph"],
        "insert_p50_ms": 0.0,
        "delete_p50_ms": 0.0,
        "ops_per_s": 0.0,
        "disk_bytes_per_graph": last.get("disk_bytes_per_graph", 0.0),
    }
    inserts = _samples(passes, "insert")
    if inserts:
        out["insert_p50_ms"] = ms * _percentile(inserts, 0.50)
        out["delete_p50_ms"] = ms * _percentile(_samples(passes, "delete"), 0.50)
        out["ops_per_s"] = (
            sum(p.attempted for p in passes)
            / sum(p.total_seconds() for p in passes)
        )
    return out


def _run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict, List]:
    from workloads import WORKLOADS  # imports the program: needs SRC on the path

    workdir = OUT / f"{name}-seed{seed}-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, workdir)
        setups, passes = _measure(workload, seconds, 1 if trace else SETUP_REPEATS)
        metrics = {"setup_s": statistics.median(sum(s.values()) for s in setups)}
        metrics.update(_timing(passes))
        if trace:
            tracer = Tracer()
            workload.tracer = tracer
            gc.collect()
            with instrumented(tracer):
                traced = workload.run_pass()
            workload.tracer = None
            gc.collect()
            after = workload.run_pass()
            tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl")
            metrics.update(_layers(workload, setups[0], traced, tracer))
            # The untraced passes just before and just after the traced one
            # bracket it, so what drift the scaling leaves cancels out too.
            bracket = (_qps(passes[-1]) + _qps(after)) / 2
            metrics["trace.query_qps_ref_delta"] = _qps(traced) - bracket
            passes += [traced, after]
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, passes


def _qps(one_pass) -> float:
    """Queries per reference second of one pass."""
    queries = one_pass.scaled["query"]
    return len(queries) / sum(queries)


def _layers(workload, setup: Dict, traced, tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the traced pass."""
    counts = traced.counts
    queries = len(traced.latencies["query"])
    inserts = len(traced.latencies["insert"])
    compacts = traced.latencies["compact"]
    out = layer_metrics(tracer, queries, inserts)
    out.update({
        "engine.invalidations": counts["invalidations"],
        "mining.build_s": setup["build_s"],
        "mining.features": workload.index.feature_count(),
        "persistence.save_v3_s": setup.get("save_v3_s", 0.0),
        "persistence.open_v3_ms": 1000.0 * counts.get("open_v3_s", 0.0),
        "storage.columns_touched_open": counts.get("columns_touched_open", 0),
        "storage.flushes": counts["flushes"],
        "storage.compact_ms": (
            1000.0 * sum(compacts) / len(compacts) if compacts else 0.0
        ),
        "storage.compactions": counts["compactions"],
        "storage.bytes_written_per_insert": counts.get("bytes_written_per_insert", 0.0),
        "storage.delta_segments_max": counts.get("delta_segments_max", 0),
    })
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_mix", "churn_v3"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PLAIN_UNITS)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    metrics, passes = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    failures = [f for p in passes for f in p.failures]
    for message in failures[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    report = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    OUT.mkdir(exist_ok=True)
    everything = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": everything}, indent=1, sort_keys=True)
    )
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
