"""Golden digests of the gIndex baseline's frequent subgraph mine.

``tests/data/subgraph_mining_golden.json`` records one SHA-256 digest of
``FrequentSubgraphMiner(...).mine()`` for

* each of the 30 differential corpora under the ψ of the differential
  suites' ``GIndexConfig(max_size=4)``, and
* perfbench's database (200 aids-like graphs, seed 11) under the ψ of
  ``GIndexConfig(max_size=6)``.

A digest covers what :func:`~tests.mining.test_mining_golden.
result_digest` covers: the sorted canonical labels, each
representative's vertex labels and edges, each pattern's embedding sets
(sorted, per graph id) and the per-level pattern and candidate counts.
The counts of cyclic patterns are recorded alongside, so a digest shows
the backward (cycle-closing) extensions are exercised.

Equality pins that the miner finds the same representatives and the
same embeddings, whatever way it aligns one extension class onto its
representative.  Regenerate (only when the mine *should* change) with::

    PYTHONPATH=src python -m tests.mining.test_subgraph_mining_golden
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.baselines import GIndexConfig
from repro.datasets import generate_aids_like
from repro.graphs import GraphDatabase
from repro.mining import FrequentSubgraphMiner, gindex_psi

from tests.mining.test_mining_golden import (
    CORPORA,
    PERF_GRAPHS,
    PERF_SEED,
    _jsonable,
    result_digest,
)
from tests.differential.test_answer_sets import make_corpus

GOLDEN = (
    Path(__file__).resolve().parent.parent / "data" / "subgraph_mining_golden.json"
)

#: The differential suites' gIndex configuration, and perfbench's size.
CORPUS_GINDEX = GIndexConfig(max_size=4)
PERF_GINDEX = GIndexConfig(max_size=6)


def subgraph_digest(db: GraphDatabase, config: GIndexConfig) -> Dict[str, Any]:
    """Digest of one gIndex mine under ``config``'s default ψ."""
    psi = gindex_psi(config.max_size, config.max_support_fraction, len(db))
    result = FrequentSubgraphMiner(db, psi, max_size=config.max_size).mine()
    cyclic = sum(1 for p in result.patterns.values() if not p.graph.is_tree())
    return {"cyclic": cyclic, **result_digest(result)}


def main() -> None:
    corpora = []
    for kind, seed in CORPORA:
        db, _ = make_corpus(kind, seed)
        corpora.append({"kind": kind, "seed": seed, **subgraph_digest(db, CORPUS_GINDEX)})
    perf = subgraph_digest(generate_aids_like(PERF_GRAPHS, seed=PERF_SEED), PERF_GINDEX)
    # One corpus a line, so a drift diff names the corpus.
    lines = ",\n  ".join(json.dumps(c) for c in corpora)
    GOLDEN.write_text(
        f'{{"corpora": [\n  {lines}\n ],\n "perfbench": {json.dumps(perf)}}}\n'
    )
    print(f"wrote {len(corpora)} corpus digests and perfbench's")


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind,seed", CORPORA, ids=[f"{k}-{s}" for k, s in CORPORA])
def test_corpus_subgraph_mine_matches_golden(golden, kind, seed):
    (want,) = [
        c for c in golden["corpora"] if c["kind"] == kind and c["seed"] == seed
    ]
    db, _ = make_corpus(kind, seed)
    got = {"kind": kind, "seed": seed, **subgraph_digest(db, CORPUS_GINDEX)}
    assert _jsonable(got) == want


def test_perfbench_subgraph_mine_matches_golden(golden):
    db = generate_aids_like(PERF_GRAPHS, seed=PERF_SEED)
    assert _jsonable(subgraph_digest(db, PERF_GINDEX)) == golden["perfbench"]


if __name__ == "__main__":
    main()
