"""Differential suite: the serving filter vs the paper's planner.

Serving gathers SF_q by enumerating every subtree of the query up to η
edges, level by level, instead of sampling it with ``RP(q)``.  Every
piece the paper's planner filters on is such a subtree, so for every
corpus of the differential sweep, plus seeded 4/8/12/16-edge extractions
from larger molecules,

* the serving candidates are a subset of the paper plan's candidates,
  or at most one (the enumeration stops there, since one prefiltered
  match decides the answer anyway),
* ``TreePiIndex.query`` and ``QueryEngine.query``, with and without
  the result cache, equal the sequential scan.

A single-label 8-clique, whose subtrees are far too many to enumerate,
is cut off by the per-edge subset cap and is still answered exactly.
"""

from __future__ import annotations

from typing import FrozenSet, List

import pytest

from repro.baselines.scan import SequentialScan
from repro.core import QueryEngine, TreePiIndex, treepi
from repro.core.treepi import QueryPlan
from repro.datasets import extract_query_workload, generate_aids_like
from repro.core.lattice import FeatureLattice
from repro.graphs import LabeledGraph

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    corpus_params,
    make_corpus,
)
from tests.differential.test_matcher_equivalence import CONFIG


def _candidates(plan: QueryPlan) -> FrozenSet[int]:
    """What a plan leaves to verify; a short-circuited plan's answer."""
    if plan.result is not None:
        return plan.result.matches
    return frozenset(plan.survivors)


def record_visits(monkeypatch, lattice: FeatureLattice) -> List[int]:
    """Sizes of the edge subsets the planner visits through ``lattice``.

    Every visit, level 1 included, looks its step up in the grow memo
    exactly once, hit or miss, so a copy of the memo that records its
    lookups counts visits however warm the memo is.  A step's child has
    as many edges as its parent has vertices, one ``(`` token each (the
    corpora's labels hold no parentheses).
    """
    sizes: List[int] = []

    class RecordingMemo(dict):
        def get(self, step, default=None):
            sizes.append(step[0].count("("))
            return super().get(step, default)

    monkeypatch.setattr(lattice, "memo", RecordingMemo(lattice.memo))
    return sizes


def assert_serving_filter_sound(index, db, queries):
    scan = SequentialScan(db)
    truth = [scan.support_set(q) for q in queries]
    for query, exact in zip(queries, truth):
        serving = _candidates(index.plan(query))
        paper = _candidates(index._plan_paper(query))
        assert exact <= serving
        assert serving <= paper or len(serving) <= 1
        assert index.query(query).matches == exact
    for cache_size in (0, 128):
        engine = QueryEngine(index, cache_size=cache_size)
        assert [engine.query(q).matches for q in queries] == truth


@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_sweep_corpora(kind, seed):
    db, queries = make_corpus(kind, seed)
    assert_serving_filter_sound(TreePiIndex.build(db, CONFIG), db, queries)


@pytest.mark.parametrize("seed", [1, 2])
def test_large_extractions(seed):
    db = generate_aids_like(12, avg_atoms=24, seed=seed)
    queries = [
        query
        for num_edges in (4, 8, 12, 16)
        for query in extract_query_workload(
            db, num_edges, 6, seed=seed * 100 + num_edges
        )
    ]
    assert_serving_filter_sound(TreePiIndex.build(db, CONFIG), db, queries)


def test_clique_stops_at_the_subset_cap(monkeypatch):
    db = generate_aids_like(24, avg_atoms=24, seed=3)
    index = TreePiIndex.build(db, CONFIG)
    clique = LabeledGraph(
        ["C"] * 8, [(i, j, 1) for i in range(8) for j in range(i + 1, 8)]
    )
    sizes = record_visits(monkeypatch, index.lattice)
    result = index.query(clique)
    assert result.complete
    assert result.matches == SequentialScan(db).support_set(clique)
    assert len(sizes) == treepi.SUBSETS_PER_EDGE * clique.num_edges
