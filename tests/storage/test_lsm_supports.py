"""LSM id sets and tree bitmaps stay exact through v3 maintenance.

A seeded interleaving of insert (some reusing a deleted id), delete,
flush, compaction and reopen runs on a v3 index.  After every operation
each feature's :meth:`~repro.storage.segments.LsmIdStore.graph_ids`
must equal its support by scan, each exception list must equal
``I(t) − D_t`` by scan, and every bitmap a random half of the trees
built must still decode to its column.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

import pytest

from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.graphs import is_subgraph_isomorphic
from repro.mining import SupportFunction
from repro.persistence import load_index, save_index
from repro.storage.segments import LsmIdStore

from tests.differential.test_answer_sets import make_corpus

CONFIG = TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)


class _Scan:
    """Supports by scan; a containment test is done once per tree key and
    graph content, however often the content comes back."""

    def __init__(self) -> None:
        self.content: Dict[int, int] = {}  # graph id -> content id
        self.graphs: Dict[int, object] = {}  # content id -> graph
        self._contains: Dict[Tuple[str, int], bool] = {}

    def add(self, gid: int, graph, content: int) -> None:
        self.content[gid] = content
        self.graphs[content] = graph

    def support(self, tree, key: str, live) -> list:
        out = []
        for gid in live:
            content = self.content[gid]
            hit = self._contains.get((key, content))
            if hit is None:
                hit = self._contains[key, content] = is_subgraph_isomorphic(
                    tree, self.graphs[content]
                )
            if hit:
                out.append(gid)
        return out


def _assert_exact(index: TreePiIndex, scan: _Scan, step: str) -> None:
    live = sorted(index.database.graph_ids())
    supports = {}
    for feature in index.features:
        assert isinstance(feature.store, LsmIdStore)
        supports[feature.feature_id] = expected = scan.support(
            feature.tree, feature.key, live
        )
        assert list(feature.store.graph_ids()) == expected, f"{step}: {feature!r}"
    for shrunk in index.shrunk:
        within = set(live)
        for fid in shrunk.cover:
            within.intersection_update(supports[fid])
        exact = set(scan.support(shrunk.tree, shrunk.key, sorted(within)))
        expected = sorted(within - exact)
        assert list(shrunk.store.graph_ids()) == expected, f"{step}: {shrunk!r}"
    index.check_bitmaps()


def _warm(index: TreePiIndex, rng: random.Random) -> None:
    """Build the bitmaps of a random half of the trees."""
    slots = index.slot_table()
    for tree in index.features + index.shrunk:
        if rng.random() < 0.5:
            tree.bitmap(slots)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_supports_match_the_scan_after_every_operation(seed, tmp_path):
    db, _ = make_corpus("chemical", 101)
    root = tmp_path / "segments"
    save_index(TreePiIndex.build(db, CONFIG), root, version=3)
    index = load_index(root)
    assert index.shrunk and any(s.exceptions() for s in index.shrunk)
    scan = _Scan()
    for gid in db.graph_ids():
        scan.add(gid, db[gid], -1 - gid)
    pool = generate_aids_like(12, avg_atoms=10, seed=seed + 500)
    pool = [pool[gid] for gid in pool.graph_ids()]
    rng = random.Random(seed)
    live = sorted(db.graph_ids())
    dead = []
    kinds = {"insert": 0, "delete": 0, "flush": 0, "compact": 0, "reopen": 0}
    try:
        for op in range(80):
            _warm(index, rng)
            kind = rng.choices(list(kinds), [4, 4, 1, 1, 1])[0]
            if kind == "insert":
                donor = rng.randrange(len(pool))
                graph = pool[donor].copy()
                if dead and rng.random() < 0.5:
                    gid = dead.pop(rng.randrange(len(dead)))
                    index.insert(graph, graph_id=gid)
                else:
                    gid = index.insert(graph)
                scan.add(gid, pool[donor], donor)
                live.append(gid)
            elif kind == "delete" and len(live) > 3:
                gid = live.pop(rng.randrange(len(live)))
                index.delete(gid)
                dead.append(gid)
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
            kinds[kind] += 1
            _assert_exact(index, scan, f"op {op} ({kind})")
    finally:
        index.segment_store.close()
    assert all(kinds.values()), kinds


def test_flush_writes_only_trees_with_new_ids_or_no_record(tmp_path):
    """A flush carries a tree when it has buffered ids or when no segment
    holds its record yet; a feature whose base column is empty keeps its
    record in the base, so the first flush after a reopen leaves it out."""
    db, _ = make_corpus("chemical", 101)
    root = tmp_path / "segments"
    save_index(TreePiIndex.build(db, CONFIG), root, version=3)
    fresh = db[0].copy()
    fresh.add_edge(fresh.add_vertex("Xq"), 0, 1)
    index = load_index(root)
    try:
        gid = index.insert(fresh)
        (key,) = [f.key for f in index.features if "Xq" in f.key]
        index.delete(gid)
        assert index.flush_segments()
        delta = index.segment_store.segments[-1]
        assert key in {entry.key for entry in delta.entries()}
        index.commit_compaction(index.prepare_compaction())
    finally:
        index.segment_store.close()

    index = load_index(root)
    try:
        assert [f.support for f in index.features if f.key == key] == [0]
        gid = index.insert(db[1].copy())
        assert index.flush_segments()
        delta = index.segment_store.segments[-1]
        carried = {entry.key for entry in delta.entries()}
        assert key not in carried
        assert all(
            gid in tree.store.graph_ids()
            for tree in index.features + index.shrunk
            if tree.key in carried
        )
    finally:
        index.segment_store.close()

    index = load_index(root)
    try:
        assert [f.support for f in index.features if f.key == key] == [0]
    finally:
        index.segment_store.close()


def test_a_delta_holds_only_the_records_it_defines(tmp_path):
    """Each tree's record is in exactly one segment, the first naming it:
    a delta entry for a tree an earlier segment defines is ``key`` and
    ``gids`` alone, and the delta that first flushes an insert-made
    feature holds its record."""
    db, _ = make_corpus("chemical", 101)
    root = tmp_path / "segments"
    save_index(TreePiIndex.build(db, CONFIG), root, version=3)
    fresh = db[0].copy()
    fresh.add_edge(fresh.add_vertex("Xq"), 0, 1)
    index = load_index(root)
    try:
        index.insert(fresh)
        (key,) = [f.key for f in index.features if "Xq" in f.key]
        assert index.flush_segments()
        index.insert(db[1].copy())
        index.insert(fresh.copy())
        assert index.flush_segments()
        base, first, second = index.segment_store.segments
        defined = {
            (entry.kind, entry.key): entry.record is not None
            for entry in first.entries()
        }
        assert defined == {
            (entry.kind, entry.key): entry.kind == "features" and entry.key == key
            for entry in first.entries()
        }
        assert defined["features", key]
        assert len(second.entries()) > 1
        assert all(entry.record is None for entry in second.entries())
        assert all(entry.record is not None for entry in base.entries())
    finally:
        index.segment_store.close()
