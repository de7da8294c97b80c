"""Unit tests for support-set intersection filtering (Algorithm 1)."""

import pytest

from repro.core import FeatureTree, filter_candidates
from repro.core.partition import QueryPiece
from repro.graphs import path_graph
from repro.mining import MinedPattern
from repro.storage import SlotTable
from repro.trees import tree_canonical_string


def make_feature(fid, labels, supports):
    """A FeatureTree over a small path with the given support graph ids."""
    tree = path_graph(labels)
    pattern = MinedPattern(tree, tree_canonical_string(tree))
    for gid in supports:
        pattern.add_embedding(gid, tuple(range(tree.num_vertices)))
    return FeatureTree.from_mined_pattern(fid, pattern)


def make_piece(feature):
    tree = feature.tree
    return QueryPiece(
        edges=tuple((u, v) for u, v, _ in tree.edges()),
        tree=tree,
        to_query={v: v for v in tree.vertices()},
        key=feature.key,
        center=feature.center,
        center_in_query=feature.center,
    )


@pytest.fixture
def features():
    f1 = make_feature(0, ["a", "b"], [0, 1, 2, 3])
    f2 = make_feature(1, ["b", "c"], [1, 2, 3])
    f3 = make_feature(2, ["c", "d"], [2, 5])
    return {f.key: f for f in (f1, f2, f3)}


#: Slots for graph ids 0..9; supports and stage-1 sets are bitmaps over it.
SLOTS = SlotTable(range(10))


def stage1(*ids):
    return SLOTS.encode(ids)


class TestFilterCandidates:
    def test_intersection(self, features):
        pieces = [make_piece(f) for f in features.values()]
        outcome = filter_candidates(stage1(*range(6)), pieces, features, SLOTS)
        assert outcome.candidates == frozenset({2})
        assert not outcome.definitely_empty

    def test_universe_initializer(self, features):
        # The stage-1 set bounds P_q from above.
        f1 = next(iter(features.values()))
        outcome = filter_candidates(
            stage1(0, 1), [make_piece(f1)], features, SLOTS
        )
        assert outcome.candidates == frozenset({0, 1})

    def test_empty_intersection_is_definitely_empty(self, features):
        f2 = features[make_feature(1, ["b", "c"], [1]).key]
        f3 = features[make_feature(2, ["c", "d"], [2]).key]
        outcome = filter_candidates(
            stage1(9), [make_piece(f2), make_piece(f3)], features, SLOTS
        )
        assert outcome.definitely_empty

    def test_no_pieces_returns_universe(self, features):
        outcome = filter_candidates(stage1(4, 5), [], features, SLOTS)
        assert outcome.candidates == frozenset({4, 5})
