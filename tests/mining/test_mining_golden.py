"""Golden digests of the subtree mine and of one saved index.

``tests/data/mining_golden.json`` records one SHA-256 digest of
``FrequentSubtreeMiner(...).mine()`` per corpus, for

* perfbench's database (200 aids-like graphs, seed 11) under its
  support function (α 2, β 2, η 5), and
* each of the 30 differential corpora under theirs (α 2, β 2, η 4).

A digest covers the sorted canonical keys, each representative's vertex
labels and edges, each pattern's embedding sets (sorted, per graph id)
and the per-level pattern and candidate counts.  The file also pins the
v2 JSON document of perfbench's index, as :func:`~repro.persistence.
save_index` writes it, with every ``*_seconds`` field zeroed.

Equality pins that the miner finds the same representatives and the
same embeddings, whatever way it aligns one extension class onto its
representative.  Regenerate (only when the mine *should* change) with::

    PYTHONPATH=src python -m tests.mining.test_mining_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.graphs import GraphDatabase
from repro.mining import FrequentSubtreeMiner, MiningResult, SupportFunction
from repro.persistence import index_to_json

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    make_corpus,
)
from tests.differential.test_matcher_equivalence import CONFIG as CORPUS_CONFIG

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "mining_golden.json"

CORPORA = [("chemical", s) for s in CHEMICAL_SEEDS] + [
    ("synthetic", s) for s in SYNTHETIC_SEEDS
]

#: perfbench's fixed database and index configuration.
PERF_GRAPHS = 200
PERF_SEED = 11
PERF_CONFIG = TreePiConfig(SupportFunction(2, 2.0, 5), gamma=1.2)


def _sha256(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def mining_digest(db: GraphDatabase, support: SupportFunction) -> Dict[str, Any]:
    """Digest of one subtree mine."""
    return result_digest(FrequentSubtreeMiner(db, support).mine())


def result_digest(result: MiningResult) -> Dict[str, Any]:
    """Digest of one mining result, with counts for readable failures."""
    patterns = []
    for key in sorted(result.patterns):
        pattern = result.patterns[key]
        graph = pattern.graph
        patterns.append({
            "key": key,
            "labels": [repr(label) for label in graph.vertex_labels()],
            "edges": [[u, v, repr(label)] for u, v, label in graph.edges()],
            "embeddings": [
                [gid, sorted(pattern.embeddings[gid])]
                for gid in sorted(pattern.embeddings)
            ],
        })
    stats = result.stats
    levels = {
        "patterns_per_level": sorted(stats.patterns_per_level.items()),
        "candidates_per_level": sorted(stats.candidates_per_level.items()),
    }
    return {
        "patterns": len(patterns),
        "embeddings": sum(p.total_embeddings() for p in result.patterns.values()),
        **levels,
        "sha256": _sha256({"patterns": patterns, **levels}),
    }


def saved_v2_digest(index: TreePiIndex) -> str:
    """SHA-256 of the saved v2 document, every ``*_seconds`` set to 0."""

    def zero(node: Any) -> Any:
        if isinstance(node, dict):
            return {
                k: 0.0 if k.endswith("_seconds") else zero(v)
                for k, v in node.items()
            }
        if isinstance(node, list):
            return [zero(v) for v in node]
        return node

    # save_index writes json.dump's default form of this document.
    text = json.dumps(zero(index_to_json(index, version=2)))
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonable(digest: Dict[str, Any]) -> Dict[str, Any]:
    """The digest as it reads back from the golden file."""
    return json.loads(json.dumps(digest))


def main() -> None:
    corpora = []
    for kind, seed in CORPORA:
        db, _ = make_corpus(kind, seed)
        corpora.append(
            {"kind": kind, "seed": seed, **mining_digest(db, CORPUS_CONFIG.support)}
        )
    db = generate_aids_like(PERF_GRAPHS, seed=PERF_SEED)
    perf = mining_digest(db, PERF_CONFIG.support)
    perf["saved_v2_sha256"] = saved_v2_digest(TreePiIndex.build(db, PERF_CONFIG))
    # One corpus a line, so a drift diff names the corpus.
    lines = ",\n  ".join(json.dumps(c) for c in corpora)
    GOLDEN.write_text(
        f'{{"corpora": [\n  {lines}\n ],\n "perfbench": {json.dumps(perf)}}}\n'
    )
    print(f"wrote {len(corpora)} corpus digests and perfbench's")


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def perf_db() -> GraphDatabase:
    return generate_aids_like(PERF_GRAPHS, seed=PERF_SEED)


@pytest.mark.parametrize("kind,seed", CORPORA, ids=[f"{k}-{s}" for k, s in CORPORA])
def test_corpus_mine_matches_golden(golden, kind, seed):
    (want,) = [
        c for c in golden["corpora"] if c["kind"] == kind and c["seed"] == seed
    ]
    db, _ = make_corpus(kind, seed)
    got = {"kind": kind, "seed": seed, **mining_digest(db, CORPUS_CONFIG.support)}
    assert _jsonable(got) == want


def test_perfbench_mine_matches_golden(golden, perf_db):
    want = dict(golden["perfbench"])
    del want["saved_v2_sha256"]
    assert _jsonable(mining_digest(perf_db, PERF_CONFIG.support)) == want


def test_perfbench_saved_v2_matches_golden(golden, perf_db):
    index = TreePiIndex.build(perf_db, PERF_CONFIG)
    assert saved_v2_digest(index) == golden["perfbench"]["saved_v2_sha256"]


if __name__ == "__main__":
    main()
