"""Exact-count self-check: one seed, run twice, must count the same.

Flushes and compactions are triggered by operation counts in a single
thread and byte metrics leave out ``manifest.json`` (it embeds wall-clock
build times), so every count below must repeat exactly.  The two runs use
different ``PYTHONHASHSEED`` values, so set-iteration order cannot leak
into a count either.  Run with::

    python3 -m pytest perfbench/test_selfcheck.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXACT = (
    "index_bytes_per_graph",
    "disk_bytes_per_graph",
    "storage.flushes",
    "storage.compactions",
    "partition.sfq_size",
    "verify.calls",
)


def _traced_run(workload: str, seed: int, hash_seed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"]
    report = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace1.json"
    return json.loads(report.read_text())["metrics"]


def test_churn_counts_repeat_exactly() -> None:
    first = _traced_run("churn_v3", 7, "1")
    second = _traced_run("churn_v3", 7, "2")
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    assert first["storage.flushes"]["value"] > 0
    assert first["storage.compactions"]["value"] > 0
    assert first["storage.columns_touched_open"]["value"] == 0
