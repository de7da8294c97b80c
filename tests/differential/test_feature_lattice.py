"""Differential suite: SF_q grown through the feature lattice.

Serving grows the query's subsets one edge at a time and reads each
grown subset's key from :class:`~repro.core.lattice.FeatureLattice`'s
grow memo, canonicalizing only on a miss, and stops growing subsets
with no indexed supertree.  :func:`_reference_subtree_levels` freezes
the enumerator as it stood before, canonicalizing every subset with
``form``.  For every corpus of the differential sweep, plus seeded
16-edge extractions:

* lattice-grown levels equal the reference levels restricted to
  ``keys`` and the indexed keys, in the same order, with a cold memo
  and with a warm one; level 1 keeps every key;
* under a visit cap, the lattice finds every indexed key the reference
  finds;
* ``keys`` is exactly the set of proper subtrees of the features, so it
  is downward closed;
* the memo stays within its bound, labels that only queries carry add
  nothing to it, and its values do not depend on which subset filled
  them;
* a memo warmed before inserts, deletes and a compaction plans exactly
  like a fresh one.

Under ``REPRO_CONTRACTS=1`` every memo hit is re-derived through
``form``; a corrupted memo is caught.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.analysis import contracts
from repro.baselines import SequentialScan
from repro.core import FeatureTree, QueryEngine, TreePiIndex
from repro.core.lattice import FeatureLattice
from repro.core.treepi import _subtree_levels
from repro.datasets import extract_query_workload, generate_aids_like
from repro.graphs import LabeledGraph
from repro.graphs.graph import Edge
from repro.mining import MinedPattern
from repro.mining.shrink import leaf_removed_subtrees
from repro.persistence import load_index, save_index
from repro.trees.canonical import SubsetCanonicalizer, tree_canonical_string

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    corpus_params,
    make_corpus,
)
from tests.differential.test_matcher_equivalence import CONFIG
from tests.differential.test_subset_canonicalizer import connected_subsets

ETA = CONFIG.support.eta

CORPORA = corpus_params(CHEMICAL_SEEDS, "chemical") + corpus_params(
    SYNTHETIC_SEEDS, "synthetic"
)


# ----------------------------------------------------------------------
# the frozen pre-lattice enumerator (reference oracle)
# ----------------------------------------------------------------------
def _reference_subtree_levels(
    query: LabeledGraph, max_size: int, limit: Optional[int] = None
) -> Iterator[List[str]]:
    form = SubsetCanonicalizer(query).form
    incident: Dict[int, List[Tuple[int, int, int, Edge]]] = {}
    frontier = []
    singles: List[str] = []
    for i, (u, v, _) in enumerate(query.edges()):
        edge, bit = (u, v), 1 << i
        incident.setdefault(u, []).append((1 << v, bit, v, edge))
        incident.setdefault(v, []).append((1 << u, bit, u, edge))
        singles.append(form((edge,))[0])
        frontier.append((bit, (1 << u) | (1 << v), (u, v), (edge,)))
    yield singles
    spent = len(singles)
    size = 1
    while frontier and size < max_size:
        keys: Dict[str, None] = {}
        seen: Set[int] = set()
        grown = []
        for mask, vmask, verts, edges in frontier:
            for u in verts:
                for vbit, bit, v, edge in incident[u]:
                    if vmask & vbit:
                        continue
                    extended_mask = mask | bit
                    if extended_mask in seen:
                        continue
                    if spent == limit:
                        yield list(keys)
                        return
                    spent += 1
                    seen.add(extended_mask)
                    extended = edges + (edge,)
                    keys[form(extended)[0]] = None
                    grown.append(
                        (extended_mask, vmask | vbit, verts + (v,), extended)
                    )
        yield list(keys)
        frontier = grown
        size += 1


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _levels(
    query: LabeledGraph, lattice: FeatureLattice, limit: Optional[int] = None
) -> Iterator[List[str]]:
    """The serving enumeration up to η edges, through ``lattice``."""
    return _subtree_levels(
        query, ETA, lattice, SubsetCanonicalizer(query), limit=limit
    )


def _live(index: TreePiIndex, key: str) -> bool:
    return key in index.lattice.keys or index.has_feature(key)


def assert_levels_match(index: TreePiIndex, query: LabeledGraph) -> None:
    expected = list(_reference_subtree_levels(query, ETA))
    expected[1:] = [[k for k in level if _live(index, k)] for level in expected[1:]]
    got = list(_levels(query, index.lattice))
    # The lattice stops at the last level with a live subset.
    got += [[]] * (len(expected) - len(got))
    assert got == expected


def _plan_facts(index: TreePiIndex, queries: List[LabeledGraph]) -> List[tuple]:
    facts = []
    for query in queries:
        plan = index.plan(query)
        result = plan.result
        facts.append((
            plan.sfq_size if result is None else result.sfq_size,
            plan.survivors,
            None if result is None else sorted(result.matches),
        ))
    return facts


def _tokens(queries: List[LabeledGraph]) -> Tuple[Set[str], Set[str]]:
    """Every vertex root token and every child token of the queries."""
    roots: Set[str] = set()
    children: Set[str] = set()
    for query in queries:
        canon = SubsetCanonicalizer(query)
        roots.update(canon.root_tokens)
        for table in canon.child_tokens:
            children.update(table.values())
    return roots, children


# ----------------------------------------------------------------------
# the 30-corpus sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind,seed", CORPORA)
def test_levels_match_reference(kind, seed):
    db, queries = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    for _ in range(2):  # a cold memo, then a warm one
        for query in queries:
            assert_levels_match(index, query)
    assert index.lattice.memo


@pytest.mark.parametrize("seed", [1, 2])
def test_sixteen_edge_extractions(seed):
    db = generate_aids_like(12, avg_atoms=24, seed=seed)
    index = TreePiIndex.build(db, CONFIG)
    queries = extract_query_workload(db, 16, 4, seed=seed * 100 + 16).queries
    for query in queries + queries:
        assert_levels_match(index, query)


@pytest.mark.parametrize("kind,seed", CORPORA[:2] + CORPORA[15:17])
def test_capped_levels_keep_the_reference_keys(kind, seed):
    # The lattice visits only subsets the reference visits too, in the
    # same relative order, so within the same budget it finds every
    # indexed key the reference finds.
    db, queries = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    for query in queries:
        for limit in range(query.num_edges, 4 * query.num_edges):
            want = {
                key
                for level in _reference_subtree_levels(query, ETA, limit)
                for key in level
                if index.has_feature(key)
            }
            got = {
                key
                for level in _levels(query, index.lattice, limit)
                for key in level
            }
            assert want <= got


@pytest.mark.parametrize("kind,seed", CORPORA)
def test_keys_are_the_proper_subtrees_of_the_features(kind, seed):
    db, _ = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    expected: Set[str] = set()
    for feature in index.features:
        tree = feature.tree
        for subset in connected_subsets(tree, feature.size - 1):
            sub, _ = tree.subgraph_from_edges(subset)
            expected.add(tree_canonical_string(sub))
            # Downward closed: a subtree's own subtrees are in too.
            for parent_key, _ in leaf_removed_subtrees(sub):
                assert parent_key in index.lattice.keys
    assert index.lattice.keys == expected


@pytest.mark.parametrize("kind,seed", CORPORA)
def test_memo_stays_within_its_bound(kind, seed):
    db, queries = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    for query in queries:
        index.plan(query)
    lattice = index.lattice
    roots, children = _tokens(queries)
    _, feature_tokens = _tokens([f.tree for f in index.features if f.size > 1])
    level1 = [step for step in lattice.memo if step[0] in roots]
    larger = [step for step in lattice.memo if step[0] in lattice.keys]
    assert len(level1) + len(larger) == len(lattice.memo)
    # Level 1 remembers live single edges only, two steps per edge key.
    assert all(at == 0 for _, at, _ in level1)
    level1_keys = {lattice.memo[step][0] for step in level1}
    assert all(_live(index, key) for key in level1_keys)
    assert len(level1) <= 2 * len(level1_keys)
    # Larger steps grow a lattice key at one of its <= eta positions by
    # an edge some feature has.
    assert all(at < ETA and token in feature_tokens for _, at, token in larger)
    assert len(larger) <= len(lattice.keys) * ETA * len(feature_tokens)
    assert len(lattice.memo) <= len(lattice.keys) * (ETA + 1) * len(children)


@pytest.mark.parametrize("kind,seed", CORPORA[:2] + CORPORA[15:17])
def test_query_only_labels_do_not_grow_the_memo(kind, seed):
    db, queries = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    for query in queries:
        assert_levels_match(index, query)
    before = dict(index.lattice.memo)
    scan = SequentialScan(db)
    for query in queries:
        for vertex in range(query.num_vertices):
            labels = list(query.vertex_labels())
            labels[vertex] = ("unseen", vertex)
            odd = LabeledGraph(labels, list(query.edges()))
            assert index.query(odd).matches == scan.support_set(odd) == frozenset()
            assert_levels_match(index, odd)
    assert index.lattice.memo == before


@pytest.mark.parametrize("kind,seed", CORPORA[:2] + CORPORA[15:17])
def test_memo_values_do_not_depend_on_the_filling_subset(kind, seed):
    # Every write is idempotent: a step taken by other subsets, from
    # other vertex ids, in another order, maps to the same value.
    db, queries = make_corpus(kind, seed)
    index = TreePiIndex.build(db, CONFIG)
    shuffled = FeatureLattice(index.features, {f.key for f in index.features})
    for query in queries:
        list(_levels(query, index.lattice))
    rng = random.Random(seed)
    for query in reversed(queries):
        for _ in range(3):
            order = list(range(query.num_vertices))
            rng.shuffle(order)
            relabeled = query.relabeled(order)
            assert_levels_match(index, relabeled)
            list(_levels(relabeled, shuffled))
    forward = index.lattice.memo
    common = forward.keys() & shuffled.memo.keys()
    assert len(common) > len(forward) // 2
    assert all(forward[step] == shuffled.memo[step] for step in common)


def test_tied_siblings_are_ordered_by_position_not_vertex_id():
    # C with two O leaves, built twice: the second leaf grown has the
    # larger vertex id in one graph and the smaller in the other.  The
    # step and its stored remap must be the same for both.
    # The lattice is built from a C with three O leaves, so the two-leaf
    # subset is a proper subtree of a feature and its remap is stored.
    star = LabeledGraph(["C", "O", "O", "O"], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    feature = FeatureTree.from_mined_pattern(
        0, MinedPattern(star, tree_canonical_string(star))
    )
    memos = []
    for edges in ([(0, 1, 1), (0, 2, 1)], [(0, 2, 1), (0, 1, 1)]):
        lattice = FeatureLattice([feature], {feature.key})
        query = LabeledGraph(["C", "O", "O"], edges)
        list(_subtree_levels(query, 2, lattice, SubsetCanonicalizer(query)))
        memos.append(lattice.memo)
    assert memos[0] == memos[1]
    assert len(memos[0]) == 2  # one level-1 step, one level-2 step
    assert all(grown[1] is not None for grown in memos[0].values())


@pytest.mark.parametrize(
    "kind,seed",
    [
        pytest.param("chemical", CHEMICAL_SEEDS[0], id="chemical"),
        pytest.param("synthetic", SYNTHETIC_SEEDS[0], id="synthetic"),
    ],
)
def test_warm_memo_survives_maintenance(kind, seed, tmp_path):
    db, queries = make_corpus(kind, seed)
    save_index(TreePiIndex.build(db, CONFIG), tmp_path / "v3", version=3)
    index = load_index(tmp_path / "v3")
    engine = QueryEngine(index, cache_size=0)
    try:
        for query in queries:
            engine.query(query)
        warmed = len(index.lattice.memo)
        assert warmed
        extra = generate_aids_like(6, avg_atoms=10, seed=seed + 1000)
        for gid in extra.graph_ids():
            engine.insert(extra[gid])
        for gid in sorted(db.graph_ids())[:2]:
            engine.delete(gid)
        engine.flush()
        assert engine.compact()
        warm = _plan_facts(index, queries)
        assert len(index.lattice.memo) >= warmed
        fresh_lattice = FeatureLattice(
            index.features, {f.key for f in index.features}
        )
        index._lattice = fresh_lattice
        assert _plan_facts(index, queries) == warm
        scan = SequentialScan(index.database)
        assert [engine.query(q).matches for q in queries] == [
            scan.support_set(q) for q in queries
        ]
    finally:
        index.segment_store.close()


# ----------------------------------------------------------------------
# runtime contracts on memo hits
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    db, queries = make_corpus("chemical", CHEMICAL_SEEDS[0])
    return TreePiIndex.build(db, CONFIG), queries


def _replay(index: TreePiIndex, queries: List[LabeledGraph]) -> None:
    for query in queries:
        list(_levels(query, index.lattice))


def test_contracts_rederive_every_hit(served, monkeypatch):
    index, queries = served
    _replay(index, queries)  # warm
    checked = []
    real = FeatureLattice.check_hit

    def spy(self, *args):
        checked.append(args[-1])
        real(self, *args)

    monkeypatch.setattr(FeatureLattice, "check_hit", spy)
    with contracts.contract_scope(True):
        _replay(index, queries)
    assert checked and any(grown is None for grown in checked)
    assert any(grown is not None and grown[1] for grown in checked)


@pytest.mark.parametrize("corruption", ["key", "positions", "dropped"])
def test_contracts_catch_a_corrupted_memo(served, monkeypatch, corruption):
    index, queries = served
    _replay(index, queries)
    memo = dict(index.lattice.memo)
    for step, grown in memo.items():
        if grown is None or grown[1] is None or len(grown[1]) < 3:
            continue
        key, remap = grown
        if corruption == "key":
            memo[step] = (key + "x", remap)
        elif corruption == "positions":
            memo[step] = (key, remap[1:] + remap[:1])
        else:
            memo[step] = None
    monkeypatch.setattr(index.lattice, "memo", memo)
    with contracts.contract_scope(True):
        with pytest.raises(contracts.ContractViolation):
            _replay(index, queries)
