"""A/B timing of index construction between two checkouts.

Usage (from the root of a checkout)::

    python benchmarks/ab_build.py --a ../parent --b . --names parent,change \\
        --pairs 10 --perfbench-seeds 10 --out bench_results/BENCH_build.json

``--a`` and ``--b`` are checkout roots.  Two measurements are taken,
interleaved so that drift of the host's speed falls on both sides alike:

* **In-process timings.**  Each sample is a fresh interpreter that
  imports ``repro`` from one checkout's ``src``, generates perfbench's
  database (200 aids-like graphs, seed 11) and times
  ``FrequentSubtreeMiner(...).mine()`` and ``TreePiIndex.build`` under
  perfbench's configuration (α 2, β 2, η 5, γ 1.2).  Each timing is
  reported in plain seconds and kernel-scaled: multiplied by
  ``perfbench/calibration.py``'s ``scale()``, the mean of one reading
  just before and one just after it.  Pair ``i`` runs A then B for even
  ``i`` and B then A for odd ``i``.  Each sample also times the gIndex
  baseline's ``FrequentSubgraphMiner(...).mine()``:
  once over the 30 differential corpora under the ψ of
  ``GIndexConfig(max_size=4)`` (``gindex_corpora``; the corpora come
  from the checkout's ``tests/differential``) and once over perfbench's
  database under that of ``GIndexConfig(max_size=6)`` (``gindex_mine``).
* **perfbench.**  For each seed, ``perfbench/run.py --workload W --seed S
  --seconds 10 --trace 0`` runs once in each checkout (the order
  alternates by seed the same way), for both workloads.  The end-to-end
  metrics are summarised by median and quartiles per side.

The report gives, per metric, both sides' medians and quartiles, the
median of the per-pair ratios B/A and how many pairs B won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

WORKLOADS = ("cold_mix", "churn_v3")
LOWER_IS_BETTER = {
    "setup_s", "query_p50_ref_ms", "query_p95_ref_ms",
    "index_bytes_per_graph", "peak_rss_mb",
}


def _gindex_runs() -> List[Tuple[str, Callable[[], object]]]:
    """The gIndex mines each sample times after the subtree runs."""
    from repro.datasets import generate_aids_like
    from repro.mining import FrequentSubgraphMiner, gindex_psi
    from tests.differential.test_answer_sets import (
        CHEMICAL_SEEDS, SYNTHETIC_SEEDS, make_corpus,
    )

    corpora = [make_corpus("chemical", s)[0] for s in CHEMICAL_SEEDS]
    corpora += [make_corpus("synthetic", s)[0] for s in SYNTHETIC_SEEDS]
    perf_db = generate_aids_like(200, seed=11)

    def mine(db: Any, max_size: int) -> object:
        psi = gindex_psi(max_size, 0.1, len(db))
        return FrequentSubgraphMiner(db, psi, max_size=max_size).mine()

    return [
        ("gindex_corpora", lambda: [mine(db, 4) for db in corpora]),
        ("gindex_mine", lambda: mine(perf_db, 6)),
    ]


def _worker() -> None:
    """One sample: time mine(), build() and the gIndex mines here."""
    import calibration
    from repro.core import TreePiConfig, TreePiIndex
    from repro.datasets import generate_aids_like
    from repro.mining import FrequentSubtreeMiner, SupportFunction

    db = generate_aids_like(200, seed=11)
    config = TreePiConfig(SupportFunction(2, 2.0, 5), gamma=1.2)
    out: Dict[str, float] = {}
    runs: List[Tuple[str, Callable[[], object]]] = [
        ("mine", lambda: FrequentSubtreeMiner(db, config.support).mine()),
        ("build", lambda: TreePiIndex.build(db, config)),
    ] + _gindex_runs()
    for name, run in runs:
        before = calibration.scale()
        t0 = time.perf_counter()
        run()
        seconds = time.perf_counter() - t0
        factor = (before + calibration.scale()) / 2
        out[f"{name}_s"] = seconds
        out[f"{name}_ref_s"] = seconds * factor
    print(json.dumps(out))


def _sample(root: Path, calibration_dir: Path) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker"],
        env=dict(os.environ, PYTHONPATH=f"{root / 'src'}:{calibration_dir}:{root}"),
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _perfbench(root: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One perfbench run: its verdict and each metric's value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    run["metrics"] = {k: m["value"] for k, m in run["metrics"].items()}
    return run


def _quartiles(values: List[float]) -> List[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def _compare(a: List[float], b: List[float], lower: bool) -> Dict[str, Any]:
    ratios = [y / x for x, y in zip(a, b)]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    return {
        "a_quartiles": _quartiles(a),
        "b_quartiles": _quartiles(b),
        "median_ratio_b_over_a": round(statistics.median(ratios), 4),
        "b_wins": f"{wins}/{len(a)}",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--a", type=Path, help="checkout root of side A")
    parser.add_argument("--b", type=Path, help="checkout root of side B")
    parser.add_argument("--names", default="a,b",
                        help="what to call sides A and B in the report")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--perfbench-seeds", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.worker:
        _worker()
        return
    sides = {"a": args.a.resolve(), "b": args.b.resolve()}
    calibration_dir = sides["b"] / "perfbench"

    samples: Dict[str, List[Dict[str, float]]] = {"a": [], "b": []}
    for i in range(args.pairs):
        for side in ("ab" if i % 2 == 0 else "ba"):
            samples[side].append(_sample(sides[side], calibration_dir))
        print(f"pair {i}: a {samples['a'][-1]}  b {samples['b'][-1]}", flush=True)
    report: Dict[str, Any] = {
        "bench": "build",
        "database": "perfbench's: 200 aids-like graphs, seed 11; "
                    "alpha 2, beta 2, eta 5, gamma 1.2",
        "a": args.names.split(",")[0], "b": args.names.split(",")[1],
        "in_process": {
            "pairs": args.pairs,
            "samples": samples,
            "metrics": {
                name: _compare(
                    [s[name] for s in samples["a"]],
                    [s[name] for s in samples["b"]],
                    lower=True,
                )
                for name in sorted(samples["a"][0] if samples["a"] else ())
            },
        },
    }

    if args.perfbench_seeds:
        runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
            w: {"a": [], "b": []} for w in WORKLOADS
        }
        for seed in range(1, args.perfbench_seeds + 1):
            for workload in WORKLOADS:
                for side in ("ab" if seed % 2 == 1 else "ba"):
                    runs[workload][side].append(
                        _perfbench(sides[side], workload, seed)
                    )
                print(f"perfbench seed {seed} {workload}: " + "  ".join(
                    f"{side} setup_s {runs[workload][side][-1]['metrics']['setup_s']}"
                    for side in "ab"
                ), flush=True)
        perf: Dict[str, Any] = {}
        for workload, by_side in runs.items():
            names = sorted(by_side["a"][0]["metrics"])
            perf[workload] = {
                "all_correct": all(r["correct"] for s in "ab" for r in by_side[s]),
                "failed": sum(r["failed"] for s in "ab" for r in by_side[s]),
                "runs": {
                    side: [r["metrics"] for r in by_side[side]] for side in "ab"
                },
                "metrics": {
                    name: _compare(
                        [r["metrics"][name] for r in by_side["a"]],
                        [r["metrics"][name] for r in by_side["b"]],
                        lower=name in LOWER_IS_BETTER,
                    )
                    for name in names
                },
            }
        report["perfbench"] = {
            "seeds": args.perfbench_seeds,
            "command": "perfbench/run.py --workload W --seed S --seconds 10 --trace 0",
            "workloads": perf,
        }

    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    print(text)


if __name__ == "__main__":
    main()
