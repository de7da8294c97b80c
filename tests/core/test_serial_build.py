"""The build runs on one thread, and its saved index is a function of its input.

A saved index must not depend on the interpreter's string-hash seed:
set and dict iteration over hashed labels would otherwise leak into
feature ids, representatives and occurrence order.  Each database below
is built in fresh interpreters under three ``PYTHONHASHSEED`` values,
and the saved JSON (wall-clock fields zeroed) must be the same bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import TreePiConfig
from repro.mining import SupportFunction

SRC = str(Path(__file__).resolve().parents[2] / "src")

BUILD_SCRIPT = """
import json
from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like, synthetic_database
from repro.mining import SupportFunction
from repro.persistence import index_to_json

databases = [
    generate_aids_like(12, avg_atoms=11, seed=31),
    synthetic_database(
        20,
        avg_seed_edges=4,
        avg_graph_edges=10,
        num_seeds=10,
        num_vertex_labels=4,
        seed=35,
    ),
]
config = TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)
for db in databases:
    doc = index_to_json(TreePiIndex.build(db, config))
    doc["stats"]["build_seconds"] = 0.0
    doc["stats"]["mining"]["elapsed_seconds"] = 0.0
    print(json.dumps(doc))
"""


def saved_indexes(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", BUILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_saved_index_is_hash_seed_independent():
    first = saved_indexes("1")
    assert first.count("\n") == 2
    # Seeds 1 and 2 happen to order this small label alphabet alike in
    # some sets; seed 3 is what catches an unsorted descriptor set.
    for hash_seed in ("2", "3"):
        assert saved_indexes(hash_seed) == first, f"PYTHONHASHSEED={hash_seed}"


def test_config_has_no_workers_knob():
    with pytest.raises(TypeError):
        TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), workers=2)
