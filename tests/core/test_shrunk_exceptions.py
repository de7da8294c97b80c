"""Exception lists: γ-shrunk tree queries answered without verification.

γ-shrinking drops a frequent tree ``t`` whose subtrees nearly pin down
its support.  The index keeps ``E(t) = I(t) − D_t``, where ``I(t)`` is
the intersection of the supports of ``t``'s indexed proper subtrees, and
a plan that intersected every level below ``|t|`` answers ``t`` as its
candidates minus ``E(t)``.  An enumeration cut short leaves a superset
of ``I(t)``; subtracting from it would be unsound, so such a plan must
verify.  These tests pin both sides, and the maintenance that keeps
``E(t)`` exact.
"""

from __future__ import annotations

import pytest

from repro.baselines import SequentialScan
from repro.core import QueryBudget, QueryEngine, TreePiConfig, TreePiIndex
from repro.core.treepi import SUBSETS_PER_EDGE
from repro.datasets import generate_aids_like
from repro.graphs import LabeledGraph
from repro.graphs.graph import GraphDatabase
from repro.mining import SupportFunction
from repro.trees.canonical import tree_canonical_string


@pytest.fixture(scope="module")
def corpus():
    db = generate_aids_like(40, avg_atoms=24, seed=17)
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(2, 2.0, 5), gamma=1.2)
    )
    return index, SequentialScan(db)


def _bracketed(result, exact):
    return result.matches <= exact <= result.matches | result.unresolved


def test_build_keeps_a_list_per_shrunk_tree(corpus):
    index, scan = corpus
    assert len(index.shrunk) == index.stats.shrink_removed > 0
    assert [t.key for t in index.shrunk] == sorted(t.key for t in index.shrunk)
    for shrunk in index.shrunk:
        assert not index.has_feature(shrunk.key)
        covered = frozenset.intersection(
            *(index.features[fid].support_set() for fid in shrunk.cover)
        )
        exact = scan.support_set(shrunk.tree)
        assert shrunk.exceptions().to_frozenset() == covered - exact


def test_shrunk_query_skips_verification(corpus):
    index, scan = corpus
    for shrunk in index.shrunk:
        plan = index.plan(shrunk.tree)
        assert plan.result is not None and not plan.survivors
        result = index.run(plan)
        assert result.direct_hit and result.complete
        assert result.matches == scan.support_set(shrunk.tree)
        assert result.candidates_after_prune == len(result.matches)
        assert result.candidates_after_filter == (
            len(result.matches) + len(shrunk.exceptions())
        )


def test_storage_bytes_count_the_lists(corpus):
    index, _ = corpus
    lists = sum(t.exceptions().nbytes() for t in index.shrunk)
    assert lists > 0
    assert index.storage_bytes() == lists + sum(
        f.store.nbytes() for f in index.features
    )


@pytest.mark.parametrize("via", ["index", "engine"])
def test_expired_budget_falls_back_to_verification(corpus, via):
    """A deadline that expires after level 1 leaves a superset of ``I(t)``."""
    index, scan = corpus
    engine = QueryEngine(index, cache_size=0)
    deep = [t for t in index.shrunk if t.tree.num_edges >= 3]
    assert deep
    for shrunk in deep:
        budget = QueryBudget(deadline_ms=0)
        if via == "index":
            result = index.query(shrunk.tree, budget=budget)
        else:
            result = engine.query(shrunk.tree, budget=budget)
        assert not result.direct_hit
        assert not result.complete and result.unresolved
        assert _bracketed(result, scan.support_set(shrunk.tree))


def test_expiry_after_the_last_level_below_keeps_the_exact_answer(corpus):
    """For a 2-edge tree, level 1 is every level below it."""
    index, scan = corpus
    pairs = [t for t in index.shrunk if t.tree.num_edges == 2]
    assert pairs
    for shrunk in pairs:
        result = index.query(shrunk.tree, budget=QueryBudget(deadline_ms=0))
        assert result.direct_hit and result.complete
        assert result.matches == scan.support_set(shrunk.tree)


def _path(labels):
    return LabeledGraph(
        list(labels), [(i, i + 1, 1) for i in range(len(labels) - 1)]
    )


def test_single_candidate_break_falls_back_to_verification():
    """Level 1 leaves one candidate, so the plan stops before level 2."""
    db = GraphDatabase()
    db.add(_path("WXYZ"))
    for _ in range(3):
        db.add(_path("CCOCN"))
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(3, 2.0, 3), gamma=1.2)
    )
    query = _path("WXYZ")
    assert tree_canonical_string(query) in {t.key for t in index.shrunk}
    plan = index.plan(query)
    assert plan.result is None and plan.survivors == [0]
    result = index.run(plan)
    assert not result.direct_hit and result.complete
    assert result.matches == frozenset({0})


def test_the_subset_cap_cannot_cut_a_shrunk_tree_below_eta():
    # 2^m - 1 connected subsets at most; the planner relies on it.
    for m in range(1, 10):
        assert (1 << m) - 1 <= SUBSETS_PER_EDGE * m


class TestMaintenance:
    @pytest.fixture
    def index(self):
        db = generate_aids_like(30, avg_atoms=16, seed=5)
        return TreePiIndex.build(
            db, TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.5)
        )

    def _assert_exact(self, index):
        scan = SequentialScan(index.database)
        for shrunk in index.shrunk:
            result = index.query(shrunk.tree)
            assert result.direct_hit
            assert result.matches == scan.support_set(shrunk.tree)

    def test_insert_and_delete_keep_the_lists_exact(self, index):
        extra = generate_aids_like(8, avg_atoms=16, seed=99)
        before = sum(len(t.exceptions()) for t in index.shrunk)
        gids = [index.insert(extra[g].copy()) for g in extra.graph_ids()]
        assert sum(len(t.exceptions()) for t in index.shrunk) > before
        self._assert_exact(index)
        for gid in gids[:3] + [0, 1]:
            index.delete(gid)
            assert all(gid not in t.exceptions() for t in index.shrunk)
        self._assert_exact(index)

    def test_insert_compiles_each_tree_once(self, index):
        extra = generate_aids_like(4, avg_atoms=16, seed=98)
        graphs = [extra[g] for g in extra.graph_ids()]
        index.insert(graphs[0].copy())
        trees = index.features + index.shrunk
        compiled = {id(t): t.compiled() for t in trees if t._compiled}
        assert compiled
        for graph in graphs[1:]:
            index.insert(graph.copy())
        for tree in trees:
            if id(tree) in compiled:
                assert tree._compiled is compiled[id(tree)]


def test_covers_recurse_through_trees_paths_only_leaves_out():
    """With ``paths_only`` a kept branching parent is not indexed either."""
    db = generate_aids_like(25, avg_atoms=14, seed=3)
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(2, 2.0, 5), gamma=1.3, paths_only=True)
    )
    scan = SequentialScan(db)
    branching = [
        t for t in index.shrunk
        if any(t.tree.degree(v) > 2 for v in t.tree.vertices())
    ]
    assert branching
    for shrunk in index.shrunk:
        result = index.query(shrunk.tree)
        assert result.direct_hit
        assert result.matches == scan.support_set(shrunk.tree)
