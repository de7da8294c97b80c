"""Differential suite: prefiltered matcher vs the frozen pre-change matcher.

:func:`_reference_monomorphisms` is a verbatim freeze of the enumerator
as it stood before the PR-10 rewrite (plain VF2-style backtracking,
``anchors[0]`` candidate source, one-step backtracking, no prefilters),
with only the token plumbing stripped.  The rewrite is allowed to change
*how fast* answers arrive, never *which* answers: for every corpus of
the differential sweep, every query × graph pair must produce the exact
same embedding set under

* the new matcher with prefilters (the default),
* the new matcher with ``prefilter=False``,
* the new matcher under a generous (non-binding) budget token,

and the engine-level support sets — budgeted and unbudgeted,
in-memory and v3 segment-backed — must equal
the reference matcher's brute-force support sets.

Seeded edge cases (``None`` edge labels, disconnected patterns, seeded
partial maps) are pinned separately so a regression cannot hide inside
corpus statistics.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.core import QueryBudget, QueryEngine, TreePiConfig, TreePiIndex
from repro.graphs import LabeledGraph, path_graph, subgraph_monomorphisms
from repro.graphs.isomorphism import CompiledPattern
from repro.mining import SupportFunction
from repro.persistence import load_index, save_index

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    corpus_params,
    make_corpus,
)

CONFIG = TreePiConfig(SupportFunction(alpha=2, beta=2.0, eta=4), seed=5)

#: Large enough that no corpus search ever trips it: the token is issued
#: and threaded, but the budget never binds, so budgeted answers must be
#: bit-for-bit the unbudgeted ones.
GENEROUS = 10_000_000


# ----------------------------------------------------------------------
# the frozen pre-change matcher (reference oracle)
# ----------------------------------------------------------------------
def _reference_matching_order(
    pattern: LabeledGraph, seeded: Tuple[int, ...]
) -> List[int]:
    n = pattern.num_vertices
    order: List[int] = list(seeded)
    placed = set(order)
    while len(order) < n:
        frontier = [
            v
            for v in pattern.vertices()
            if v not in placed and any(w in placed for w in pattern.neighbors(v))
        ]
        pool = frontier or [v for v in pattern.vertices() if v not in placed]
        nxt = max(pool, key=lambda v: (pattern.degree(v), -v))
        order.append(nxt)
        placed.add(nxt)
    return order


def _reference_monomorphisms(
    pattern: LabeledGraph,
    target: LabeledGraph,
    seed: Optional[Dict[int, int]] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[int, int]]:
    """The pre-rewrite enumerator, frozen (token accounting removed)."""
    pn = pattern.num_vertices
    if pn == 0 or pn > target.num_vertices or pattern.num_edges > target.num_edges:
        return
    seed = seed or {}

    used_targets = set()
    for pv, tv in seed.items():
        if pattern.vertex_label(pv) != target.vertex_label(tv):
            return
        if pattern.degree(pv) > target.degree(tv):
            return
        if tv in used_targets:
            return
        used_targets.add(tv)
    for pv, tv in seed.items():
        for pw, tw in seed.items():
            if pv < pw and pattern.has_edge(pv, pw):
                if not target.has_edge(tv, tw):
                    return
                if pattern.edge_label(pv, pw) != target.edge_label(tv, tw):
                    return

    order = _reference_matching_order(pattern, tuple(seed))

    t_adj = target._adj
    t_labels = target._vlabels
    p_labels = pattern._vlabels

    label_buckets: Dict[object, List[int]] = {}
    for tv, lbl in enumerate(t_labels):
        label_buckets.setdefault(lbl, []).append(tv)

    mapping: Dict[int, int] = dict(seed)
    used = set(seed.values())
    emitted = 0

    earlier_nbrs: List[List[Tuple[int, object]]] = []
    position = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        earlier_nbrs.append(
            [(w, lbl) for w, lbl in pattern._adj[v].items() if position[w] < i]
        )
    want_labels = [p_labels[v] for v in order]
    want_degrees = [len(pattern._adj[v]) for v in order]

    def candidates(i: int) -> Iterator[int]:
        want_label = want_labels[i]
        want_degree = want_degrees[i]
        anchors = earlier_nbrs[i]
        if anchors:
            aw, albl = anchors[0]
            for tv, tlbl in t_adj[mapping[aw]].items():
                if (
                    tv not in used
                    and tlbl == albl
                    and t_labels[tv] == want_label
                    and len(t_adj[tv]) >= want_degree
                ):
                    yield tv
        else:
            for tv in label_buckets.get(want_label, ()):
                if tv not in used and len(t_adj[tv]) >= want_degree:
                    yield tv

    missing = object()

    def feasible(i: int, tv: int) -> bool:
        row = t_adj[tv]
        for pw, lbl in earlier_nbrs[i]:
            if row.get(mapping[pw], missing) != lbl:
                return False
        return True

    start = len(seed)

    def backtrack(i: int) -> Iterator[Dict[int, int]]:
        nonlocal emitted
        if i == pn:
            emitted += 1
            yield dict(mapping)
            return
        pv = order[i]
        for tv in candidates(i):
            if not feasible(i, tv):
                continue
            mapping[pv] = tv
            used.add(tv)
            yield from backtrack(i + 1)
            used.discard(tv)
            del mapping[pv]
            if limit is not None and emitted >= limit:
                return

    yield from backtrack(start)


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def embedding_set(mappings) -> frozenset:
    return frozenset(tuple(sorted(m.items())) for m in mappings)


def assert_matcher_parity(pattern, target, seed=None):
    """Reference vs new matcher, all three modes, one (pattern, target)."""
    want = embedding_set(_reference_monomorphisms(pattern, target, seed=seed))
    got_fast = embedding_set(subgraph_monomorphisms(pattern, target, seed=seed))
    assert got_fast == want, "prefiltered matcher diverged"
    got_plain = embedding_set(
        subgraph_monomorphisms(pattern, target, seed=seed, prefilter=False)
    )
    assert got_plain == want, "unfiltered matcher diverged"
    token = QueryBudget(verify_steps=GENEROUS).start()
    got_budgeted = embedding_set(
        subgraph_monomorphisms(pattern, target, seed=seed, token=token)
    )
    assert got_budgeted == want, "budgeted matcher diverged"
    assert not token.expired
    return want


def reference_support(db, query) -> frozenset:
    """Brute-force support set via the frozen matcher."""
    return frozenset(
        gid
        for gid in db.graph_ids()
        if any(True for _ in _reference_monomorphisms(query, db[gid], limit=1))
    )


# ----------------------------------------------------------------------
# corpus sweep: matcher-level embedding sets
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_embedding_sets_match_reference(kind, seed):
    db, queries = make_corpus(kind, seed)
    for qi, query in enumerate(queries):
        for gid in db.graph_ids():
            try:
                assert_matcher_parity(query, db[gid])
            except AssertionError as exc:
                raise AssertionError(f"query {qi} vs graph {gid}: {exc}") from exc


@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_seeded_embedding_sets_match_reference(kind, seed):
    """Partial-map seeding: anchor each query on its own first embedding."""
    db, queries = make_corpus(kind, seed)
    checked = 0
    for query in queries:
        for gid in db.graph_ids():
            first = next(_reference_monomorphisms(query, db[gid]), None)
            if first is None:
                continue
            items = sorted(first.items())
            # One-vertex anchor and a two-vertex partial map.
            assert_matcher_parity(query, db[gid], seed=dict(items[:1]))
            assert_matcher_parity(query, db[gid], seed=dict(items[:2]))
            checked += 1
            break  # one host graph per query keeps the sweep fast
    assert checked, "corpus produced no embeddable query"


# ----------------------------------------------------------------------
# corpus sweep: a shared compiled pattern keeps the search
# ----------------------------------------------------------------------
def _counted_search(pattern, target, seed=None, compiled=None):
    """``(embeddings in yield order, steps charged)`` under a non-binding token."""
    token = QueryBudget(verify_steps=GENEROUS).start()
    found = list(
        subgraph_monomorphisms(
            pattern, target, seed=seed, token=token, compiled=compiled
        )
    )
    assert not token.expired
    return found, token.work_charged


@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_shared_compiled_pattern_keeps_step_counts(kind, seed):
    """One :class:`CompiledPattern` per query (and seed keys), searched
    against every graph, charges exactly the steps of a fresh per-call
    compile and yields the same embeddings in the same order: the
    matching order, and so the search, is the same."""
    db, queries = make_corpus(kind, seed)
    steps = 0
    for qi, query in enumerate(queries):
        shared = {(): CompiledPattern(query)}
        for gid in db.graph_ids():
            target = db[gid]
            seeds = [None]
            first = next(_reference_monomorphisms(query, target), None)
            if first is not None:
                items = sorted(first.items())
                seeds += [dict(items[:1]), dict(items[:2])]
            for anchor in seeds:
                keys = tuple(anchor or ())
                if keys not in shared:
                    shared[keys] = CompiledPattern(query, keys)
                want = _counted_search(query, target, seed=anchor)
                got = _counted_search(
                    query, target, seed=anchor, compiled=shared[keys]
                )
                assert got == want, f"query {qi} vs graph {gid}, seed {anchor}"
                steps += want[1]
    assert steps, "corpus charged no steps"


# ----------------------------------------------------------------------
# corpus sweep: engine-level support sets (memory + v3 segments)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_engine_support_sets_match_reference(kind, seed, tmp_path):
    db, queries = make_corpus(kind, seed)
    truth = [reference_support(db, q) for q in queries]

    index = TreePiIndex.build(db, CONFIG)
    save_index(index, tmp_path / "segments", version=3)
    loaded = load_index(tmp_path / "segments")
    assert loaded.segment_backed
    mem = QueryEngine(index, cache_size=0)
    mapped = QueryEngine(loaded, cache_size=0)
    try:
        for engine in (mem, mapped):
            # Unbudgeted, then budgeted (generous, non-binding).
            for i, query in enumerate(queries):
                assert engine.query(query).matches == truth[i], f"single {i}"
                budgeted = engine.query(
                    query, budget=QueryBudget(verify_steps=GENEROUS)
                )
                assert budgeted.complete
                assert budgeted.matches == truth[i], f"budgeted single {i}"
    finally:
        loaded.segment_store.close()


# ----------------------------------------------------------------------
# pinned edge cases (no corpus statistics to hide behind)
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_none_edge_labels(self):
        target = LabeledGraph(
            ["a", "b", "a", "b"],
            [(0, 1, None), (1, 2, 1), (2, 3, None), (0, 3, 1)],
        )
        for el in (None, 1):
            pattern = LabeledGraph(["a", "b"], [(0, 1, el)])
            found = assert_matcher_parity(pattern, target)
            assert found  # both labels occur; neither set may be empty

    def test_none_vertex_labels(self):
        target = LabeledGraph([None, "b", None], [(0, 1, 1), (1, 2, 1)])
        pattern = LabeledGraph([None, "b"], [(0, 1, 1)])
        assert len(assert_matcher_parity(pattern, target)) == 2

    def test_disconnected_pattern(self):
        pattern = LabeledGraph(["a", "b", "a", "b"], [(0, 1, 1), (2, 3, 1)])
        target = path_graph(["a", "b", "a", "b"])
        assert len(assert_matcher_parity(pattern, target)) == 2

    def test_disconnected_pattern_with_isolated_vertex(self):
        pattern = LabeledGraph(["a", "b", "c"], [(0, 1, 1)])
        target = LabeledGraph(
            ["a", "b", "c", "c"], [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
        )
        assert len(assert_matcher_parity(pattern, target)) == 2

    def test_disconnected_pattern_seeded_across_components(self):
        pattern = LabeledGraph(["a", "b", "a", "b"], [(0, 1, 1), (2, 3, 1)])
        target = path_graph(["a", "b", "a", "b"])
        assert_matcher_parity(pattern, target, seed={0: 2})
        assert_matcher_parity(pattern, target, seed={0: 0, 2: 2})
        assert_matcher_parity(pattern, target, seed={0: 0, 2: 0})  # collision

    def test_seed_violating_internal_edge(self):
        pattern = path_graph(["a", "a", "a"])
        target = LabeledGraph(["a"] * 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        # 0 and 3 are not adjacent in the target, but pattern 0-1 is an edge.
        assert assert_matcher_parity(pattern, target, seed={0: 0, 1: 3}) == frozenset()

    def test_triangle_free_target_refutation(self):
        # Parity pruning at work: C3 into C4 (bipartite) is refuted;
        # the reference agrees via exhaustive search.
        triangle = LabeledGraph(["a"] * 3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        square = LabeledGraph(["a"] * 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        assert assert_matcher_parity(triangle, square) == frozenset()
