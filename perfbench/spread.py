"""Seed-to-seed spread of the end-to-end metrics, against BENCHMARK.json.

Runs the benchmark command once per seed and workload, ``--sets`` times
over, and prints per metric and set the median and the interquartile range
as a share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound.  With two or more sets it also prints how much worse
each later set's median is than the first set's, as a share of it::

    python3 perfbench/spread.py --workloads cold_mix churn_v3 --seeds 1-10 --sets 2

A set runs every workload before the next set starts.  Spreads above a
third of the bound are marked ``!``, and spreads or median changes above
the bound ``X``.  Raw results are appended to ``.perfbench/spread.jsonl``.

The query metrics in plain units (before the scaling of ``calibration.py``),
which the benchmark writes to its ``.perfbench`` report but does not
print, are shown after the gated metrics for comparison; they have no
bound and are not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
PLAIN = {"query_qps": "higher", "query_p50_ms": "lower", "query_p95_ms": "lower"}


def _seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec: Dict, workload: str, seed: int, seconds: int,
         log: Path) -> Optional[Dict]:
    """One benchmark run; its result line, or None if it failed."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    with log.open("a") as out:
        out.write(json.dumps({"workload": workload, "seed": seed,
                              "exit": done.returncode, "wall_s": wall,
                              **result}) + "\n")
    if done.returncode or not result.get("correct"):
        print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        return None
    result["wall_s"] = wall
    report = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace0.json"
    plain = json.loads(report.read_text())["metrics"]
    for name in PLAIN:
        result["metrics"][name] = plain[name]
    return result


def main(argv: List[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({name: {"better": better, "bound": None}
                    for name, better in PLAIN.items()})
    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    # values[set][workload][metric] -> one value per seed
    values: List[Dict[str, Dict[str, List[float]]]] = []
    walls: List[float] = []
    for _ in range(args.sets):
        values.append({})
        for workload in args.workloads:
            got = values[-1][workload] = {name: [] for name in metrics}
            for seed in args.seeds:
                result = _run(spec, workload, seed, args.seconds, log)
                if result is None:
                    return 1
                walls.append(result["wall_s"])
                for name in metrics:
                    got[name].append(result["metrics"][name]["value"])

    worst = 0.0
    for workload in args.workloads:
        print(f"{workload} ({len(args.seeds)} seeds x {args.sets} sets)")
        for name, metric in metrics.items():
            bound = metric["bound"]
            gated = bound is not None
            medians, cells = [], []
            for one in values:
                q1, median, q3 = statistics.quantiles(one[workload][name], n=4)
                spread = (q3 - q1) / median
                mark = " "
                if gated:
                    worst = max(worst, spread / bound)
                    mark = "X" if spread > bound else "!" if spread > bound / 3 else " "
                medians.append(median)
                cells.append(f"median {median:11.4f} spread {spread:6.3f}{mark}")
            for median in medians[1:]:
                change = (median - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                mark = " "
                if gated:
                    worst = max(worst, worse / bound)
                    mark = "X" if worse > bound else " "
                cells.append(f"worse by {worse:+6.3f}{mark}")
            label = f"bound {bound:4}" if gated else "not gated "
            print(f"  {name:22s} {label}  " + "  ".join(cells))
    print(f"worst spread or median change / bound: {worst:.2f}")
    print(f"{len(walls)} runs, mean wall time {sum(walls) / len(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
