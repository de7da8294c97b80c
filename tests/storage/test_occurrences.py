"""A feature's occurrence record: its support ids in an ``IdStore``.

Features keep the graphs they occur in, not where in them; unit tests
and randomized add/remove interleavings against a set oracle.
"""

import random

import pytest

from repro.storage import IdStore, PostingList


class TestBasics:
    def test_empty_store(self):
        store = IdStore(PostingList())
        assert len(store.graph_ids()) == 0
        assert store.graph_ids() == frozenset()
        assert store.nbytes() == 0
        assert 3 not in store.graph_ids()

    def test_columns_roundtrip(self):
        store = IdStore(PostingList([9, 1, 4, 4]))
        twin = IdStore(PostingList.from_sorted(list(store.graph_ids())))
        assert twin.graph_ids() == store.graph_ids()
        assert list(twin.graph_ids()) == [1, 4, 9]

    def test_from_columns_validates(self):
        with pytest.raises(ValueError):
            PostingList.from_sorted([1, 0])  # unsorted
        with pytest.raises(ValueError):
            PostingList.from_sorted([2, 2])  # duplicate
        with pytest.raises(ValueError):
            PostingList.from_sorted([-1, 3])  # negative

    def test_nbytes_grows(self):
        store = IdStore(PostingList())
        before = store.nbytes()
        store.add_graph(0)
        assert store.nbytes() > before


class TestMaintenance:
    def test_add_merges_union(self):
        store = IdStore(PostingList())
        store.add_graph(3)
        store.add_graph(3)  # duplicate insert
        store.add_graph(11)
        assert list(store.graph_ids()) == [3, 11]

    def test_add_negative_gid_rejected(self):
        with pytest.raises(ValueError):
            IdStore(PostingList()).add_graph(-1)

    def test_remove_absent_graph(self):
        store = IdStore(PostingList([1]))
        store.remove_graph(9)
        assert list(store.graph_ids()) == [1]
        store.remove_graph(1)
        store.remove_graph(1)
        assert len(store.graph_ids()) == 0

    def test_snapshot_isolation(self):
        """Views handed out before a mutation keep their contents."""
        store = IdStore(PostingList([1, 5]))
        posting = store.graph_ids()
        store.remove_graph(1)
        store.add_graph(2)
        assert posting == {1, 5}
        assert store.graph_ids() == {2, 5}


class TestRandomizedOracle:
    """Seeded add/remove interleavings against a dict-keyed oracle."""

    @pytest.mark.parametrize("seed,width", [(0, 1), (1, 1), (2, 2), (3, 2)])
    def test_against_dict(self, seed, width):
        """``width`` ids are added or removed per step."""
        rng = random.Random(seed)
        store = IdStore(PostingList())
        oracle = {}
        for _ in range(400):
            gids = [rng.randrange(15) for _ in range(width)]
            if rng.random() < 0.65:
                for gid in gids:
                    store.add_graph(gid)
                    oracle[gid] = None
            else:
                for gid in gids:
                    store.remove_graph(gid)
                    oracle.pop(gid, None)
            assert store.graph_ids() == set(oracle)
            probe = rng.randrange(15)
            assert (probe in store.graph_ids()) == (probe in oracle)
        assert list(store.graph_ids()) == sorted(oracle)
        assert store.nbytes() == store.graph_ids().nbytes()
