"""On-demand center locations equal the ones mining records.

The index stores support ids only; ``query_paper`` asks
:meth:`FeatureTree.locate_centers` for a feature's center locations in
a candidate.  The oracle is the miner's own embeddings
(:func:`~repro.core.feature.mined_centers`), the set the index used to
store:

* exact mining (the 30 differential corpora): the two are equal for
  every (feature, graph) pair, absent pairs included, and their total is
  ``IndexStats.total_center_locations``;
* capped mining (``max_embeddings_per_graph``): the mined set may be
  short, the located one never is, so ``query_paper`` answers like the
  scan wherever the capped supports are complete.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import SequentialScan
from repro.core import TreePiIndex
from repro.core.feature import mined_centers
from repro.datasets import extract_query_workload
from repro.mining.subtree_miner import FrequentSubtreeMiner

from tests.core.test_query_paper_golden import CORPORA
from tests.differential.test_answer_sets import make_corpus
from tests.differential.test_matcher_equivalence import CONFIG


def _mined(db, config):
    miner = FrequentSubtreeMiner(
        db, config.support, max_embeddings_per_graph=config.max_embeddings_per_graph
    )
    return miner.mine().patterns


@pytest.mark.parametrize("kind,seed", CORPORA, ids=[f"{k}-{s}" for k, s in CORPORA])
def test_located_centers_equal_mined_centers(kind, seed):
    db, _ = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    patterns = _mined(db, CONFIG)
    total = 0
    for feature in index.features:
        mined = mined_centers(patterns[feature.key])
        for gid in db.graph_ids():
            located = feature.locate_centers(db[gid])
            assert located == mined.get(gid, frozenset()), (feature.key, gid)
            total += len(located)
    assert total == index.stats.total_center_locations


#: The corpus config with capped mining, as ``test_shrunk_exceptions`` caps it.
CAPPED = replace(CONFIG, max_embeddings_per_graph=2)


def _capped_locations(db, index):
    """Count of (feature, graph) pairs whose mined centers are short, and
    whether every capped support is complete; asserts located ⊇ mined."""
    patterns = _mined(db, CAPPED)
    short, complete = 0, True
    for feature in index.features:
        mined = mined_centers(patterns[feature.key])
        for gid in db.graph_ids():
            located = feature.locate_centers(db[gid])
            want = mined.get(gid, frozenset())
            assert located >= want, (feature.key, gid)
            short += located != want
            complete &= bool(located) == bool(want)
    return short, complete


@pytest.mark.parametrize("kind,seed", CORPORA, ids=[f"{k}-{s}" for k, s in CORPORA])
def test_capped_mining_locates_a_superset(kind, seed):
    """Capped mining may also shorten a support; answers then stay sound,
    and are exact whenever every support is complete."""
    db, queries = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CAPPED)
    _, complete = _capped_locations(db, index)
    scan = SequentialScan(db)
    for i, query in enumerate(queries):
        truth = scan.support_set(query)
        got = index.query_paper(query).matches
        assert got <= truth, f"query {i}"
        if complete:
            assert got == truth, f"query {i}"


def test_capped_mining_short_centers_answer_exactly():
    """A corpus whose capped supports are complete but whose mined centers
    are short: stored, those centers made Algorithms 2 and 3 miss
    matches; located, they answer like the scan."""
    db, queries = make_corpus("chemical", 101)
    index = TreePiIndex.build(db, CAPPED)
    short, complete = _capped_locations(db, index)
    assert complete and short
    scan = SequentialScan(db)
    extra = list(extract_query_workload(db, 4, 8, seed=7))
    for query in list(queries) + extra:
        assert index.query_paper(query).matches == scan.support_set(query)
