"""The query deadline covers planning, not just verification.

The serving planner enumerates the query's subtrees level by level and
polls the budget's token after every level.  With an already-expired
deadline it must stop after level 1 (the single edges, which it needs
for the missing-edge emptiness proof) and hand the candidates found so
far to verification, which reports them unresolved.  A recording copy
of the index's grow memo, which every visited subset looks its step up
in, proves no larger subset was ever looked at.
"""

from __future__ import annotations

import pytest

from repro.baselines import SequentialScan
from repro.core import (
    QueryBudget,
    QueryEngine,
    TreePiConfig,
    TreePiIndex,
)
from repro.datasets import extract_query_workload, generate_aids_like
from repro.graphs import LabeledGraph
from repro.mining import SupportFunction

from tests.differential.test_serving_filter import record_visits


def _all_carbon_clique(k: int) -> LabeledGraph:
    return LabeledGraph(
        ["C"] * k, [(i, j, 1) for i in range(k) for j in range(i + 1, k)]
    )


@pytest.fixture(scope="module")
def corpus():
    db = generate_aids_like(40, avg_atoms=24, seed=17)
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(2, 2.0, 5), gamma=1.2)
    )
    # Its single edges alone leave 19 candidates, so the unbudgeted plan
    # goes deeper than level 1.
    (query16,) = extract_query_workload(db, 16, 1, seed=2).queries
    return index, SequentialScan(db), query16, _all_carbon_clique(8)


@pytest.fixture
def subset_sizes(monkeypatch, corpus):
    """Sizes of every edge subset the planner visits."""
    return record_visits(monkeypatch, corpus[0].lattice)


def _assert_bracketed(result, exact):
    assert not result.complete
    assert result.degraded_reason == "deadline"
    assert result.matches <= exact <= result.matches | result.unresolved


@pytest.mark.parametrize("which", ["16-edge", "K8"])
def test_expired_deadline_stops_after_single_edges(corpus, subset_sizes, which):
    index, scan, query16, clique = corpus
    query = query16 if which == "16-edge" else clique
    result = index.query(query, budget=QueryBudget(deadline_ms=0))
    _assert_bracketed(result, scan.support_set(query))
    assert subset_sizes and max(subset_sizes) == 1


@pytest.mark.parametrize("which", ["16-edge", "K8"])
def test_engine_passes_its_token_to_the_planner(corpus, subset_sizes, which):
    index, scan, query16, clique = corpus
    query = query16 if which == "16-edge" else clique
    # cache_size=0 skips the cache key, a minimum DFS code on a clique.
    engine = QueryEngine(index, cache_size=0)
    result = engine.query(query, budget=QueryBudget(deadline_ms=0))
    _assert_bracketed(result, scan.support_set(query))
    assert max(subset_sizes) == 1


def test_cached_engine_passes_its_token_to_the_planner(corpus, subset_sizes):
    # With the cache on, the token first bounds keying and the lookup.
    index, scan, query16, _ = corpus
    engine = QueryEngine(index)
    result = engine.query(query16, budget=QueryBudget(deadline_ms=0))
    _assert_bracketed(result, scan.support_set(query16))
    assert max(subset_sizes) == 1


def test_unbudgeted_plan_enumerates_deeper(corpus, subset_sizes):
    # The wrapper does see larger subsets when no deadline stops the
    # enumeration, so the tests above are not vacuous.
    index, scan, query16, _ = corpus
    assert index.query(query16).matches == scan.support_set(query16)
    assert max(subset_sizes) > 1
