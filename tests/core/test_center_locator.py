"""On-demand center locations equal the ones mining records.

The index stores support ids only; ``query_paper`` asks
:meth:`FeatureTree.locate_centers` for a feature's center locations in
a candidate.  The oracle is the miner's own embeddings
(:func:`~repro.core.feature.mined_centers`), the set the index used to
store.  Mining keeps every embedding, so over the 30 differential
corpora the two are equal for every (feature, graph) pair, absent pairs
included, and their total is ``IndexStats.total_center_locations``.
"""

from __future__ import annotations

import pytest

from repro.core import TreePiIndex
from repro.core.feature import mined_centers
from repro.mining.subtree_miner import FrequentSubtreeMiner

from tests.core.test_query_paper_golden import CORPORA
from tests.differential.test_answer_sets import make_corpus
from tests.differential.test_matcher_equivalence import CONFIG


@pytest.mark.parametrize("kind,seed", CORPORA, ids=[f"{k}-{s}" for k, s in CORPORA])
def test_located_centers_equal_mined_centers(kind, seed):
    db, _ = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    patterns = FrequentSubtreeMiner(db, CONFIG.support).mine().patterns
    total = 0
    for feature in index.features:
        mined = mined_centers(patterns[feature.key])
        for gid in db.graph_ids():
            located = feature.locate_centers(db[gid])
            assert located == mined.get(gid, frozenset()), (feature.key, gid)
            total += len(located)
    assert total == index.stats.total_center_locations
