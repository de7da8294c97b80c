"""Differential suite: exception lists against the sequential scan.

For every corpus of the differential sweep, every γ-shrunk key ``t``
must satisfy ``E(t) = I(t) − D_t``, where ``I(t)`` is recomputed here
from its definition (the supports of ``t``'s indexed proper subtrees,
found by leaf-removal descent) and ``D_t`` is the sequential scan's
support.  Every shrunk key, asked as a query, must come back equal to
the scan, and as a direct hit unless its plan stopped at one candidate
or none.  The check runs

* after build;
* after an insert/delete interleaving on the heap index;
* on a v3 directory, through flush, compaction and reopen;
* after a v2 save and load.

Under ``REPRO_CONTRACTS=1`` every lattice memo hit the shrunk queries'
plans take is re-derived (``FeatureLattice.check_hit``).
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

import pytest

from repro.baselines import SequentialScan
from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.mining import SupportFunction
from repro.mining.shrink import leaf_removed_subtrees
from repro.persistence import load_index, save_index

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    make_corpus,
)

CONFIG = TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)

CORPORA = [("chemical", s) for s in CHEMICAL_SEEDS] + [
    ("synthetic", s) for s in SYNTHETIC_SEEDS
]


def _within(index: TreePiIndex, tree: LabeledGraph) -> FrozenSet[int]:
    """``I(t)``: the supports of the indexed proper subtrees, intersected."""
    seen: Set[str] = set()
    stack = [tree]
    supports: List[FrozenSet[int]] = []
    while stack:
        for key, sub in leaf_removed_subtrees(stack.pop()):
            if key in seen:
                continue
            seen.add(key)
            feature = index.feature_by_key(key)
            if feature is not None:
                supports.append(feature.support_set())
            stack.append(sub)
    return frozenset.intersection(*supports)


def assert_lists_exact(index: TreePiIndex, live: GraphDatabase) -> None:
    scan = SequentialScan(live)
    assert index.shrunk
    for shrunk in index.shrunk:
        exact = scan.support_set(shrunk.tree)
        within = _within(index, shrunk.tree)
        assert shrunk.exceptions().to_frozenset() == within - exact, shrunk.key
        result = index.query(shrunk.tree)
        assert result.complete and result.matches == exact, shrunk.key
        # Only a plan that stopped at one candidate, or none, verifies.
        assert result.direct_hit or result.candidates_after_filter <= 1


def _extra_graphs(seed: int) -> List[LabeledGraph]:
    extra = generate_aids_like(6, avg_atoms=10, seed=seed + 1000)
    return [extra[g] for g in extra.graph_ids()]


def _copy(db: GraphDatabase) -> GraphDatabase:
    mirror = GraphDatabase()
    for gid in db.graph_ids():
        mirror.add(db[gid].copy(), graph_id=gid)
    return mirror


@pytest.mark.parametrize("kind,seed", CORPORA)
def test_lists_exact_after_build_and_heap_maintenance(kind, seed):
    db, _ = make_corpus(kind, seed)
    live = _copy(db)
    index = TreePiIndex.build(db, CONFIG)
    assert_lists_exact(index, live)
    extra = _extra_graphs(seed)
    for graph in extra[:3]:
        live.add(graph.copy(), graph_id=index.insert(graph.copy()))
    for gid in (sorted(live.graph_ids())[0], live.graph_ids()[-1]):
        index.delete(gid)
        live.remove(gid)
    for graph in extra[3:]:
        live.add(graph.copy(), graph_id=index.insert(graph.copy()))
    assert_lists_exact(index, live)


@pytest.mark.parametrize("kind,seed", CORPORA)
def test_lists_survive_v2_save_and_load(kind, seed, tmp_path):
    db, _ = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    index.insert(_extra_graphs(seed)[0].copy())
    index.delete(0)
    path = tmp_path / "index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert [t.key for t in loaded.shrunk] == [t.key for t in index.shrunk]
    assert_lists_exact(loaded, _copy(index.database))


@pytest.mark.parametrize("kind,seed", CORPORA)
def test_lists_exact_through_v3_flush_compaction_reopen(kind, seed, tmp_path):
    db, _ = make_corpus(kind, seed)
    live = _copy(db)
    root = tmp_path / "segments"
    save_index(TreePiIndex.build(db, CONFIG), root, version=3)
    index = load_index(root)
    store = index.segment_store
    try:
        assert store.columns_touched() == 0
        assert_lists_exact(index, live)
        extra = _extra_graphs(seed)
        for graph in extra[:3]:
            live.add(graph.copy(), graph_id=index.insert(graph.copy()))
        victim = sorted(live.graph_ids())[0]
        index.delete(victim)
        live.remove(victim)
        assert_lists_exact(index, live)
        index.flush_segments()
        assert store.segment_count == 2
        assert_lists_exact(index, live)
        for graph in extra[3:]:
            live.add(graph.copy(), graph_id=index.insert(graph.copy()))
        victim = live.graph_ids()[-1]
        index.delete(victim)
        live.remove(victim)
        index.flush_segments()
        plan = index.prepare_compaction()
        assert plan is not None
        index.commit_compaction(plan)
        assert store.segment_count == 1 and not store.tombstones
        assert_lists_exact(index, live)
        index.insert(extra[0].copy(), graph_id=victim)
        live.add(extra[0].copy(), graph_id=victim)
        index.flush_segments()
    finally:
        store.close()
    reopened = load_index(root)
    try:
        assert_lists_exact(reopened, live)
    finally:
        reopened.segment_store.close()
