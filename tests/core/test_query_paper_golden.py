"""Golden outputs of the paper pipeline, ``TreePiIndex.query_paper``.

``tests/data/query_paper_golden.json`` records, per query, the answer and
the paper's pruning counters (``sfq_size``, ``partition_size``, ``P_q``,
``P'_q`` and how many survivors the center-prune cap kept) for

* every query of the 30 differential corpora, and
* 200 extracted 4/8/12/16-edge queries on perfbench's database
  (200 aids-like graphs, seed 11; η = 5, γ = 1.2), stored in the file.

The file was written by an index that stored every feature's center
locations; the index now finds them by search when ``query_paper`` asks.
Equality pins that the two give the same Algorithm 2 and 3 results.
Regenerate (only when those results *should* change) with::

    PYTHONPATH=src python -m tests.core.test_query_paper_golden
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import extract_query, generate_aids_like
from repro.graphs import LabeledGraph
from repro.mining import SupportFunction
from repro.storage.codec import decode_label, encode_label

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    make_corpus,
)
from tests.differential.test_matcher_equivalence import CONFIG as CORPUS_CONFIG

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "query_paper_golden.json"

CORPORA = [("chemical", s) for s in CHEMICAL_SEEDS] + [
    ("synthetic", s) for s in SYNTHETIC_SEEDS
]

#: perfbench's fixed database and index configuration.
PERF_GRAPHS = 200
PERF_SEED = 11
PERF_CONFIG = TreePiConfig(SupportFunction(2, 2.0, 5), gamma=1.2)
PERF_STRATA = (4, 8, 12, 16)
PERF_PER_STRATUM = 50


def _record(index: TreePiIndex, query: LabeledGraph) -> Dict[str, Any]:
    result = index.query_paper(query)
    return {
        "matches": sorted(result.matches),
        "sfq_size": result.sfq_size,
        "partition_size": result.partition_size,
        "candidates_after_filter": result.candidates_after_filter,
        "candidates_after_prune": result.candidates_after_prune,
        "prune_exhausted": result.prune_exhausted,
    }


def _encode_graph(graph: LabeledGraph) -> Dict[str, Any]:
    return {
        "v": [encode_label(label) for label in graph.vertex_labels()],
        "e": [[u, v, encode_label(label)] for u, v, label in graph.edges()],
    }


def _decode_graph(record: Dict[str, Any]) -> LabeledGraph:
    return LabeledGraph(
        [decode_label(label) for label in record["v"]],
        [(u, v, decode_label(label)) for u, v, label in record["e"]],
    )


def _perf_queries(db) -> List[LabeledGraph]:
    rng = random.Random(5)
    return [
        extract_query(db, size, rng)
        for size in PERF_STRATA
        for _ in range(PERF_PER_STRATUM)
    ]


def main() -> None:
    corpora = []
    for kind, seed in CORPORA:
        db, queries = make_corpus(kind, seed)
        index = TreePiIndex.build(db, CORPUS_CONFIG)
        corpora.append(
            {
                "kind": kind,
                "seed": seed,
                "results": [_record(index, q) for q in queries],
            }
        )
    db = generate_aids_like(PERF_GRAPHS, seed=PERF_SEED)
    index = TreePiIndex.build(db, PERF_CONFIG)
    # Each record is computed on the stored form of its query, which is
    # what the test decodes.
    stored = [_encode_graph(q) for q in _perf_queries(db)]
    perf = [{"query": q, **_record(index, _decode_graph(q))} for q in stored]
    GOLDEN.write_text(
        json.dumps({"corpora": corpora, "perfbench": perf}, separators=(",", ":"))
        + "\n"
    )
    print(f"wrote {len(corpora)} corpora and {len(perf)} perfbench queries")


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind,seed", CORPORA, ids=[f"{k}-{s}" for k, s in CORPORA])
def test_corpus_query_paper_matches_golden(golden, kind, seed):
    (entry,) = [
        c for c in golden["corpora"] if c["kind"] == kind and c["seed"] == seed
    ]
    db, queries = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CORPUS_CONFIG)
    assert len(queries) == len(entry["results"])
    for i, (query, want) in enumerate(zip(queries, entry["results"])):
        assert _record(index, query) == want, f"{kind}-{seed} query {i}"


def test_perfbench_query_paper_matches_golden(golden):
    db = generate_aids_like(PERF_GRAPHS, seed=PERF_SEED)
    index = TreePiIndex.build(db, PERF_CONFIG)
    records = golden["perfbench"]
    assert len(records) == len(PERF_STRATA) * PERF_PER_STRATUM
    for i, want in enumerate(records):
        query = _decode_graph(want["query"])
        got = {"query": want["query"], **_record(index, query)}
        assert got == want, f"perfbench query {i} ({query.num_edges} edges)"


if __name__ == "__main__":
    main()
