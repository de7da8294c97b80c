"""PostingList unit + seeded randomized property tests against set oracles,
and the columnar layer's gates against the set-based filter it replaced."""

import random
import sys
import time

import pytest

from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.mining import SupportFunction
from repro.storage import PostingList
from repro.storage.posting import GALLOP_RATIO


class TestConstruction:
    def test_sorts_and_dedups(self):
        pl = PostingList([5, 1, 3, 1, 5])
        assert list(pl) == [1, 3, 5]

    def test_empty(self):
        pl = PostingList()
        assert len(pl) == 0
        assert not pl
        assert list(pl) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PostingList([3, -1])

    def test_from_sorted_validates(self):
        assert list(PostingList.from_sorted([1, 2, 9])) == [1, 2, 9]
        with pytest.raises(ValueError):
            PostingList.from_sorted([1, 1])
        with pytest.raises(ValueError):
            PostingList.from_sorted([2, 1])

    def test_wide_ids(self):
        big = 1 << 40
        pl = PostingList([big, 7])
        assert list(pl) == [7, big]
        assert big in pl


class TestContainer:
    def test_contains(self):
        pl = PostingList([2, 4, 8])
        assert 4 in pl
        assert 5 not in pl
        assert -1 not in pl
        assert "x" not in pl

    def test_getitem(self):
        assert PostingList([9, 4])[1] == 9

    def test_eq_posting_and_set(self):
        pl = PostingList([1, 2])
        assert pl == PostingList([2, 1])
        assert pl == {1, 2}
        assert pl == frozenset({1, 2})
        assert pl != {1, 3}
        assert pl != PostingList([1])

    def test_repr_truncates(self):
        assert "n=20" in repr(PostingList(range(20)))

    def test_nbytes(self):
        assert PostingList([1, 2, 3]).nbytes() >= 12


class TestAlgebra:
    def test_intersect_merge_path(self):
        a, b = PostingList([1, 2, 3, 4]), PostingList([2, 4, 6])
        assert a.intersect(b) == {2, 4}

    def test_intersect_gallop_path(self):
        small = PostingList([3, 500])
        large = PostingList(range(0, GALLOP_RATIO * 4 * 2, 2))
        assert large.intersect(small) == ({3, 500} & set(large))

    def test_intersect_empty(self):
        assert PostingList().intersect(PostingList([1])) == frozenset()

    def test_intersect_many_requires_input(self):
        with pytest.raises(ValueError):
            PostingList.intersect_many([])

    def test_intersect_many_single(self):
        assert PostingList.intersect_many([PostingList([4, 2])]) == {2, 4}

    def test_intersect_many_early_exit(self, monkeypatch):
        # {1} & {2} is empty, so the long third list is never probed.
        def no_gallop(*args):
            raise AssertionError("probed past an empty intermediate")

        monkeypatch.setattr(PostingList, "_gallop_into", no_gallop)
        lists = [PostingList([1]), PostingList([2]), PostingList(range(100))]
        assert PostingList.intersect_many(lists) == frozenset()


class TestRandomizedOracle:
    """Seeded sweeps comparing every operation against plain Python sets."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_two_way_ops(self, seed):
        rng = random.Random(seed)
        for _ in range(120):
            # Skewed sizes on purpose: both merge and gallop paths fire.
            a = rng.sample(range(2500), rng.randrange(0, 160))
            b = rng.sample(range(2500), rng.randrange(0, 1600))
            pa, pb = PostingList(a), PostingList(b)
            sa, sb = set(a), set(b)
            assert pa.intersect(pb) == sa & sb
            assert pb.intersect(pa) == sa & sb
            probe = rng.randrange(2500)
            assert (probe in pa) == (probe in sa)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_k_way(self, seed):
        rng = random.Random(seed)
        for _ in range(80):
            k = rng.randrange(1, 7)
            lists = [
                PostingList(rng.sample(range(400), rng.randrange(0, 250)))
                for _ in range(k)
            ]
            expected = set(lists[0])
            for nxt in lists[1:]:
                expected &= set(nxt)
            assert PostingList.intersect_many(lists) == expected

    def test_singleton_and_duplicate_edges(self):
        assert PostingList([7]).intersect(PostingList([7])) == {7}
        assert PostingList([7, 7, 7]) == {7}
        assert PostingList([7]).intersect(PostingList([8])) == frozenset()


# ----------------------------------------------------------------------
# Gates against the pre-columnar filter: same answers, smaller resident
# tables, intersection at parity or faster.
# ----------------------------------------------------------------------
REPEATS = 7
ROUNDS = 30


def set_intersection(universe, support_dicts):
    """The pre-columnar Algorithm 1 inner loop, replayed faithfully.

    ``support_dicts`` stand in for the old dict-keyed occurrence store;
    its ``support_set()`` accessor built ``frozenset(locations)`` anew on
    each call, so that materialization is part of the measured cost.
    """
    result = set(universe)
    for support in sorted(support_dicts, key=len):
        result &= frozenset(support)
        if not result:
            break
    return result


def posting_intersection(postings):
    return PostingList.intersect_many(postings)


def best_of_ms(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            fn()
        best = min(best, (time.perf_counter() - t0) / ROUNDS)
    return best * 1000.0


def deep_set_bytes(mapping):
    """Resident bytes of a dict-of-frozensets occurrence/support table."""
    total = sys.getsizeof(mapping)
    for key, value in mapping.items():
        total += sys.getsizeof(key) + sys.getsizeof(value)
        for item in value:
            total += sys.getsizeof(item)
            if isinstance(item, tuple):
                total += sum(sys.getsizeof(x) for x in item)
    return total


def assert_intersection_parity(universe, support_dicts, postings):
    assert posting_intersection(postings) == set_intersection(
        universe, support_dicts
    )
    set_ms = best_of_ms(lambda: set_intersection(universe, support_dicts))
    posting_ms = best_of_ms(lambda: posting_intersection(postings))
    assert posting_ms <= set_ms * 1.15 + 0.02, (posting_ms, set_ms)


class TestSetReplayGates:
    @pytest.mark.parametrize(
        "universe,densities,seed",
        [
            (20000, [0.10, 0.12, 0.15, 0.20, 0.25, 0.30], 5),  # uniform dense
            (20000, [0.002, 0.05, 0.30, 0.45, 0.60, 0.75], 6),  # skewed
            (50000, [0.0004, 0.25, 0.40, 0.55], 7),  # needle
            (200, [0.10, 0.30, 0.50, 0.80], 8),  # tiny database
        ],
    )
    def test_synthetic_supports(self, universe, densities, seed):
        rng = random.Random(seed)
        supports = [
            sorted(rng.sample(range(universe), max(1, int(universe * d))))
            for d in densities
        ]
        postings = [PostingList.from_sorted(s) for s in supports]
        assert_intersection_parity(
            range(universe), [dict.fromkeys(s) for s in supports], postings
        )
        frozen = {i: frozenset(s) for i, s in enumerate(supports)}
        assert sum(p.nbytes() for p in postings) < deep_set_bytes(frozen)

    def test_built_index_supports(self):
        db = generate_aids_like(60, avg_atoms=14, seed=23)
        index = TreePiIndex.build(
            db, TreePiConfig(SupportFunction(2, 2.0, 5), gamma=1.2, seed=1)
        )
        features = sorted(index.features, key=lambda f: (-f.support, f.key))[:8]
        assert_intersection_parity(
            db.graph_ids(),
            [dict.fromkeys(f.support_set()) for f in features],
            [f.support_posting() for f in features],
        )
        dict_bytes = deep_set_bytes(
            {f.feature_id: f.support_set() for f in index.features}
        )
        assert index.storage_bytes() < dict_bytes
