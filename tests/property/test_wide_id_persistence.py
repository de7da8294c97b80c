"""Wide graph ids (> 2^32) survive every persistence format.

The id columns start as ``array('I')`` and widen to ``'Q'`` the moment
any value exceeds 32 bits (:func:`repro.storage.posting.id_array`).
Graph ids flow through three serialized shapes — the v2 JSON document,
the v3 segment columns, and the v3 *delta* segments written by flush —
and a truncation bug in any of them would silently corrupt answers, so
these properties pin the full round trip with ids straddling the
2^32 boundary (forcing mixed-width splices).  Support bitmaps index
dense slots, not ids, so wide ids must not widen them.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TreePiConfig, TreePiIndex
from repro.graphs import GraphDatabase
from repro.mining import SupportFunction
from repro.persistence import index_from_json, index_to_json, load_index, save_index
from repro.storage import IdStore, PostingList

from tests.property.strategies import connected_graphs

WIDE = 1 << 32  # first id that no longer fits array('I')


@st.composite
def wide_id_database(draw):
    """A small database whose graph ids straddle the 2^32 boundary."""
    graphs = draw(
        st.lists(
            connected_graphs(min_vertices=3, max_vertices=6),
            min_size=3,
            max_size=6,
        )
    )
    offsets = draw(
        st.lists(
            st.integers(0, 1 << 20),
            min_size=len(graphs),
            max_size=len(graphs),
            unique=True,
        )
    )
    db = GraphDatabase()
    for i, (graph, off) in enumerate(zip(graphs, offsets)):
        # Even positions stay narrow, odd positions go past 2^32, so
        # every id column mixes widths and must widen to 'Q'.
        base = WIDE + off if i % 2 else off
        db.add(graph.copy(), graph_id=base)
    return db


def _build(db):
    config = TreePiConfig(
        SupportFunction(alpha=2, beta=2.0, eta=3), gamma=1.2, seed=3
    )
    return TreePiIndex.build(db, config)


def _assert_same_answers(a, b):
    assert sorted(a.database.graph_ids()) == sorted(b.database.graph_ids())
    assert len(a.features) == len(b.features)
    for fa, fb in zip(a.features, b.features):
        assert fa.key == fb.key
        assert list(fa.support_posting()) == list(fb.support_posting())


@given(wide_id_database())
@settings(max_examples=15, deadline=None)
def test_wide_ids_round_trip_v2_json(db):
    index = _build(db)
    doc = index_to_json(index)
    loaded = index_from_json(doc)
    _assert_same_answers(index, loaded)
    assert any(gid >= WIDE for gid in loaded.database.graph_ids())


@given(db=wide_id_database())
@settings(max_examples=10, deadline=None)
def test_wide_ids_round_trip_v3_segments(tmp_path_factory, db):
    index = _build(db)
    root = tmp_path_factory.mktemp("wide") / "idx"
    save_index(index, root, version=3)
    loaded = load_index(root)
    try:
        _assert_same_answers(index, loaded)
        assert any(gid >= WIDE for gid in loaded.database.graph_ids())
    finally:
        loaded.segment_store.close()


def test_wide_ids_survive_delta_flush_and_compaction(tmp_path):
    """Inserts with ids past 2^32 flow through memtable -> delta -> base."""
    from repro.datasets import generate_aids_like

    src = generate_aids_like(8, avg_atoms=10, seed=11)
    db = GraphDatabase()
    for i, gid in enumerate(src.graph_ids()):
        db.add(src[gid], graph_id=(WIDE + i if i % 2 else i))
    index = _build(db)
    root = tmp_path / "idx"
    save_index(index, root, version=3)
    loaded = load_index(root)
    store = loaded.segment_store
    try:
        extra = generate_aids_like(3, avg_atoms=8, seed=23)
        new_ids = []
        for j, gid in enumerate(extra.graph_ids()):
            new_ids.append(
                loaded.insert(extra[gid], graph_id=WIDE + (1 << 16) + j)
            )
        victim = sorted(db.graph_ids())[-1]  # a wide id
        assert victim >= WIDE
        loaded.delete(victim)
        assert loaded.flush_segments()
        assert store.segment_count == 2  # base + one delta
        plan = loaded.prepare_compaction()
        assert plan is not None
        loaded.commit_compaction(plan)
        assert store.segment_count == 1
    finally:
        store.close()
    reopened = load_index(root)
    try:
        ids = set(reopened.database.graph_ids())
        assert set(new_ids) <= ids
        assert victim not in ids
        for feature in reopened.features:
            support = feature.support_posting()
            assert victim not in support
            # Every support id is a live graph the feature occurs in.
            for gid in support:
                assert feature.locate_centers(reopened.database[gid])
    finally:
        reopened.segment_store.close()


@given(db=wide_id_database(), churn=st.lists(st.booleans(), max_size=8))
@settings(max_examples=15, deadline=None)
def test_bitmaps_follow_live_count_not_ids(db, churn):
    """Bound: every bitmap has at most ``peak`` bits, ``peak`` being the
    most graphs live at once, so it takes at most as many bytes as the
    int ``2**peak - 1`` — ids of 2^32 and more change nothing."""
    index = _build(db)
    slots = index.slot_table()
    trees = index.features + index.shrunk
    for tree in trees:
        tree.bitmap(slots)
    donors = [index.database[gid].copy() for gid in index.database.graph_ids()]
    peak = len(index.database)
    for i, insert in enumerate(churn):
        if insert:
            index.insert(donors[i % len(donors)].copy(), graph_id=WIDE << 8 | i)
        elif len(index.database) > 1:
            index.delete(min(index.database.graph_ids()))
        peak = max(peak, len(index.database))
    assert max(index.database.graph_ids()) >= WIDE
    assert len(slots) == peak
    widest = sys.getsizeof((1 << peak) - 1)
    for tree in trees:
        bits = tree.cached_bitmap
        assert bits.bit_length() <= peak
        assert sys.getsizeof(bits) <= widest
        assert slots.decode(bits) == list(tree.store.graph_ids())


def test_id_store_widens_past_32_bits():
    """The support-id store itself holds wide gids (the unit-level pin)."""
    store = IdStore(PostingList([5, WIDE + 9]))
    assert list(store.graph_ids()) == [5, WIDE + 9]
    assert store.graph_ids()._ids.typecode == "Q"
    rebuilt = PostingList.from_sorted(list(store.graph_ids()))
    assert rebuilt == store.graph_ids()
    # splicing a narrow id into the widened column keeps 'Q'
    store.add_graph(7)
    assert list(store.graph_ids()) == [5, 7, WIDE + 9]
    assert store.graph_ids()._ids.typecode == "Q"
    store.remove_graph(WIDE + 9)
    assert list(store.graph_ids()) == [5, 7]
