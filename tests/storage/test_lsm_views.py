"""Cached LSM merged views stay exact through maintenance.

An insert or delete splices its one gid into or out of each
:class:`~repro.storage.segments.LsmIdStore` view (a feature's support set
or an exception list) instead of dropping the view, so a seeded interleaving of insert, delete, flush, compaction and
reopen on a v3 index checks, after every operation, that each feature's
and each exception list's ``graph_ids()`` equals a fresh ``_live_ids``
merge of its layers, memtable and tombstones.  A delete must leave every
store that lacks the gid holding the very same view object.
"""

from __future__ import annotations

import random

import pytest

from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.mining import SupportFunction
from repro.persistence import load_index, save_index
from repro.storage.segments import LsmIdStore, _live_ids

from tests.differential.test_answer_sets import make_corpus

CONFIG = TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)


def _stores(index: TreePiIndex):
    stores = [feature.store for feature in index.features]
    stores += [shrunk.store for shrunk in index.shrunk]
    assert all(isinstance(s, LsmIdStore) for s in stores)
    return stores


def _fresh(store) -> list:
    return list(_live_ids(store._layers, store.pending, store._tomb))


def _assert_views_exact(index: TreePiIndex, step: str) -> None:
    for store in _stores(index):
        assert list(store.graph_ids()) == _fresh(store), f"{step}: {store!r}"


def _warm(index: TreePiIndex, rng: random.Random) -> dict:
    """Cache the views of a random half of the stores; return them by store id."""
    return {
        id(store): store.graph_ids()
        for store in _stores(index)
        if rng.random() < 0.5
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_views_match_a_fresh_merge_after_every_operation(seed, tmp_path):
    db, _ = make_corpus("chemical", 101)
    root = tmp_path / "segments"
    save_index(TreePiIndex.build(db, CONFIG), root, version=3)
    index = load_index(root)
    assert index.shrunk and any(s.exceptions() for s in index.shrunk)
    pool = generate_aids_like(12, avg_atoms=10, seed=seed + 500)
    pool = [pool[gid] for gid in pool.graph_ids()]
    rng = random.Random(seed)
    live = sorted(db.graph_ids())
    dead = []
    kept_views = spliced = 0
    try:
        for op in range(80):
            warm = _warm(index, rng)
            kind = rng.choices(
                ["insert", "delete", "flush", "compact", "reopen"], [4, 4, 1, 1, 1]
            )[0]
            if kind == "insert":
                graph = rng.choice(pool).copy()
                if dead and rng.random() < 0.5:
                    gid = dead.pop(rng.randrange(len(dead)))
                    index.insert(graph, graph_id=gid)
                else:
                    gid = index.insert(graph)
                live.append(gid)
            elif kind == "delete" and len(live) > 3:
                gid = live.pop(rng.randrange(len(live)))
                index.delete(gid)
                dead.append(gid)
                for store in _stores(index):
                    before = warm.get(id(store))
                    if before is None:
                        continue
                    if gid in before:
                        assert store._gids is not before
                        spliced += 1
                    else:
                        assert store._gids is before, f"op {op}: {store!r}"
                        kept_views += 1
            elif kind == "flush":
                index.flush_segments()
            elif kind == "compact":
                index.flush_segments()
                plan = index.prepare_compaction()
                if plan is not None:
                    index.commit_compaction(plan)
            elif kind == "reopen":
                index.flush_segments()
                index.segment_store.close()
                index = load_index(root)
            _assert_views_exact(index, f"op {op} ({kind})")
    finally:
        index.segment_store.close()
    assert kept_views and spliced
