"""The serving pipeline is partition → filter → prefiltered direct match.

Center pruning (Algorithm 2) and anchored reconstruction (Algorithm 3)
belong to :meth:`TreePiIndex.query_paper` only.  Here both are replaced
with functions that raise, so any serving call that reaches them fails.
The answers must still equal the sequential scan on 8-, 12- and 16-edge
queries, where the paper's pipeline would prune and reconstruct.
"""

from __future__ import annotations

import pytest

from repro.baselines import SequentialScan
from repro.core import QueryEngine, TreePiConfig, TreePiIndex, treepi
from repro.datasets import extract_query_workload, generate_aids_like
from repro.mining import SupportFunction

QUERY_SIZES = (8, 12, 16)


def _forbidden(*args, **kwargs):
    raise AssertionError("the serving path reached the paper's algorithm")


@pytest.fixture(scope="module")
def corpus():
    db = generate_aids_like(16, avg_atoms=22, seed=29)
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=5)
    )
    queries = [
        query
        for size in QUERY_SIZES
        for query in extract_query_workload(db, size, 3, seed=size)
    ]
    scan = SequentialScan(db)
    return index, queries, [scan.support_set(q) for q in queries]


@pytest.fixture(autouse=True)
def no_paper_algorithms(monkeypatch):
    monkeypatch.setattr(treepi, "center_prune", _forbidden)
    monkeypatch.setattr(treepi, "verify_candidate", _forbidden)


def test_the_guard_trips_on_the_paper_path(corpus):
    index, queries, _ = corpus
    with pytest.raises(AssertionError, match="paper's algorithm"):
        for query in queries:
            index.query_paper(query)


def test_index_query(corpus):
    index, queries, truth = corpus
    assert [index.query(q).matches for q in queries] == truth


@pytest.mark.parametrize("verify_workers", [1, 3])
def test_engine_query_and_batch(corpus, verify_workers):
    index, queries, truth = corpus
    engine = QueryEngine(index, cache_size=0, verify_workers=verify_workers)
    assert [engine.query(q).matches for q in queries] == truth
    assert [r.matches for r in engine.query_batch(queries)] == truth
