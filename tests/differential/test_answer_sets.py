"""Differential oracle suite: five engines, one answer set.

For every seeded corpus the exact support set ``D_q`` of each query is
computed five ways —

* ``TreePiIndex.query``           (the serving pipeline, serial),
* ``TreePiIndex.query_paper``     (center prune + reconstruction),
* ``QueryEngine.query``           (cold, then again from cache),
* ``SequentialScan.support_set``  (brute-force ground truth),
* ``GIndexBaseline.query``        (independent filter+verify design),

— and all of them must agree exactly.  Any divergence is a soundness or
completeness bug in one of the pipelines, never an acceptable tradeoff.

A handful of corpora run in the default (fast) suite; the full sweep is
marked ``slow``.  One corpus is frozen on disk under ``data/`` together
with its expected answers, so a regression can never hide behind a
generator change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.gindex import GIndexBaseline, GIndexConfig
from repro.baselines.scan import SequentialScan
from repro.core import QueryEngine, TreePiConfig, TreePiIndex
from repro.datasets import (
    extract_query_workload,
    generate_aids_like,
    synthetic_database,
)
from repro.graphs import load_database
from repro.mining import SupportFunction

DATA_DIR = Path(__file__).parent / "data"

QUERY_SIZES = (3, 5)
QUERIES_PER_SIZE = 3

#: (kind, seed) for every generated corpus.  The first entries of each
#: kind form the fast subset; the rest only run with ``-m slow`` (CI).
CHEMICAL_SEEDS = list(range(101, 116))
SYNTHETIC_SEEDS = list(range(201, 216))
FAST_PER_KIND = 2


def make_corpus(kind: str, seed: int):
    """One small database plus a mixed-size query workload."""
    if kind == "chemical":
        db = generate_aids_like(10, avg_atoms=11, seed=seed)
    else:
        db = synthetic_database(
            10,
            avg_seed_edges=4,
            avg_graph_edges=9,
            num_seeds=6,
            num_vertex_labels=3,
            seed=seed,
        )
    queries = []
    for num_edges in QUERY_SIZES:
        queries.extend(
            extract_query_workload(db, num_edges, QUERIES_PER_SIZE, seed=seed + num_edges)
        )
    return db, queries


def assert_engines_agree(db, queries):
    """The five-way differential check for one corpus."""
    scan = SequentialScan(db)
    treepi = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)
    )
    gindex = GIndexBaseline.build(db, GIndexConfig(max_size=4))
    engine = QueryEngine(treepi, cache_size=len(queries))
    answers = []
    for i, query in enumerate(queries):
        truth = scan.support_set(query)
        assert treepi.query(query).matches == truth, f"TreePi diverged on query {i}"
        assert (
            treepi.query_paper(query).matches == truth
        ), f"TreePi paper pipeline diverged on query {i}"
        assert engine.query(query).matches == truth, f"engine (cold) diverged on query {i}"
        assert engine.query(query).matches == truth, f"engine (cached) diverged on query {i}"
        assert gindex.query(query).matches == truth, f"gIndex diverged on query {i}"
        answers.append(truth)
    # The second pass above must have been served from cache.
    stats = engine.stats
    assert stats.cache_hits >= len(queries) - stats.batch_dedup_hits
    return answers


def corpus_params(seeds, kind):
    fast, slow = seeds[:FAST_PER_KIND], seeds[FAST_PER_KIND:]
    params = [pytest.param(kind, s, id=f"{kind}-{s}") for s in fast]
    params += [
        pytest.param(kind, s, id=f"{kind}-{s}", marks=pytest.mark.slow)
        for s in slow
    ]
    return params


@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_answer_sets_agree(kind, seed):
    db, queries = make_corpus(kind, seed)
    assert_engines_agree(db, queries)


# ----------------------------------------------------------------------
# frozen corpus — regenerate with `python tests/differential/freeze.py`
# ----------------------------------------------------------------------
def test_frozen_corpus_answers():
    """Replay the committed corpus against its committed answer sets.

    This pins today's semantics to bytes on disk: if any engine (or the
    generators feeding the differential sweep) drifts, this test fails
    even though the five live engines still agree with each other.
    """
    db = load_database(DATA_DIR / "corpus.txt")
    queries = list(load_database(DATA_DIR / "queries.txt"))
    expected = json.loads((DATA_DIR / "expected_answers.json").read_text())
    assert len(expected["answers"]) == len(queries)
    live = assert_engines_agree(db, queries)
    for i, (truth, frozen) in enumerate(zip(live, expected["answers"])):
        assert sorted(truth) == frozen, f"frozen answers drifted on query {i}"
