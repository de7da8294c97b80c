"""Identity suite: pruned walk-parity bounds vs the full pattern table.

An unseeded :class:`~repro.graphs.isomorphism.CompiledPattern` keeps
parity bounds only for the levels placed before the pattern's last
2-core vertex, because past it no bound can fail.  This suite holds the
pruned search to the search that checks every bound, built here from
the pattern's full ``matcher_index().parity_rows()``: for each case the
two must yield the same mapping sequence and charge the same
``token.work_charged``.  The cases are every (query, graph) pair of the
30 differential corpora, extracted 4/8/12/16-edge queries on an
aids-like database, odd cycles against bipartite grids, and seeded
searches (which keep the full table).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import networkx as nx
import pytest

from repro.core.budget import CancellationToken
from repro.datasets import extract_query, generate_aids_like
from repro.graphs import LabeledGraph, cycle_graph, path_graph, subgraph_monomorphisms
from repro.graphs.builders import graph_from_edgelist, to_networkx
from repro.graphs.isomorphism import CompiledPattern

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    make_corpus,
)

Bounds = List[List[Tuple[int, int, int]]]


def full_table(cp: CompiledPattern) -> Bounds:
    """Every level's finite bounds against earlier positions, from the n×n rows."""
    p_even, p_odd = cp.pattern.matcher_index().parity_rows()
    order = cp.order
    pn = len(order)
    table = []
    for i in range(pn):
        base = order[i] * pn
        level = []
        for j in range(i):
            be, bo = p_even[base + order[j]], p_odd[base + order[j]]
            if be < 255 or bo < 255:
                level.append((j, be, bo))
        table.append(level)
    return table


def _run(cp: CompiledPattern, target: LabeledGraph, seed: Optional[Dict[int, int]]):
    token = CancellationToken()
    maps = list(
        subgraph_monomorphisms(cp.pattern, target, seed=seed, token=token, compiled=cp)
    )
    return maps, token.work_charged


def assert_identical(
    pattern: LabeledGraph,
    targets: List[LabeledGraph],
    seed: Optional[Dict[int, int]] = None,
) -> None:
    seeded = tuple(seed) if seed else ()
    pruned = CompiledPattern(pattern, seeded)
    full = CompiledPattern(pattern, seeded)
    full._par_bounds = full_table(full)
    for t, target in enumerate(targets):
        assert _run(pruned, target, seed) == _run(full, target, seed), f"target {t}"


def last_core_position(pattern: LabeledGraph, order: List[int]) -> int:
    """Position of the last 2-core vertex, via networkx; 0 for a forest."""
    core = set(nx.k_core(to_networkx(pattern), 2))
    return max((i for i, v in enumerate(order) if v in core), default=0)


def grid(m: int, n: int) -> LabeledGraph:
    edges = []
    for r in range(m):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1, 1))
            if r + 1 < m:
                edges.append((v, v + n, 1))
    return graph_from_edgelist(["a"] * (m * n), edges)


# ----------------------------------------------------------------------
# identity cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kind,seed",
    [("chemical", s) for s in CHEMICAL_SEEDS] + [("synthetic", s) for s in SYNTHETIC_SEEDS],
)
def test_corpus_pairs(kind, seed):
    db, queries = make_corpus(kind, seed)
    graphs = [db[gid] for gid in db.graph_ids()]
    for query in queries:
        assert_identical(query, graphs)


@pytest.mark.parametrize("num_edges", [4, 8, 12, 16])
def test_extracted_queries_on_aids_like(num_edges):
    db = generate_aids_like(30, seed=11)
    graphs = [db[gid] for gid in db.graph_ids()]
    rng = random.Random(num_edges)
    for _ in range(12):
        assert_identical(extract_query(db, num_edges, rng), graphs)


@pytest.mark.parametrize("length", [3, 4, 5, 6, 7, 8, 9])
def test_cycles_against_bipartite_grids(length):
    targets = [grid(3, 3), grid(3, 4), grid(4, 4), grid(4, 5)]
    assert_identical(cycle_graph(["a"] * length), targets)


def test_seeded_searches_keep_the_full_table():
    db = generate_aids_like(12, seed=3)
    graphs = [db[gid] for gid in db.graph_ids()]
    rng = random.Random(7)
    checked = 0
    for _ in range(10):
        query = extract_query(db, 6, rng)
        seeded = CompiledPattern(query, (0,))
        assert seeded.parity_bounds() == full_table(seeded)
        for target in graphs:
            for tv in range(target.num_vertices):
                if target.vertex_label(tv) == query.vertex_label(0):
                    assert_identical(query, [target], seed={0: tv})
                    checked += 1
    assert checked
    c5 = cycle_graph(["a"] * 5)
    for tv in range(9):
        assert_identical(c5, [grid(3, 3)], seed={0: tv})


# ----------------------------------------------------------------------
# the kept-levels rule
# ----------------------------------------------------------------------
def test_forest_never_builds_parity_rows():
    pattern = graph_from_edgelist(
        ["a", "b", "a", "c", "a"], [(0, 1, 1), (1, 2, 1), (1, 3, 2), (3, 4, 1)]
    )
    target = graph_from_edgelist(
        ["a", "b", "a", "c", "a", "a"],
        [(0, 1, 1), (1, 2, 1), (1, 3, 2), (3, 4, 1), (4, 5, 1), (5, 0, 1)],
    )
    cp = CompiledPattern(pattern)
    assert list(subgraph_monomorphisms(pattern, target, compiled=cp))
    assert cp.parity_bounds() is None
    assert pattern.matcher_index()._parity is None
    assert target.matcher_index()._parity is None


@pytest.mark.parametrize(
    "labels,edges",
    [
        # a triangle with a pendant path: the core is the triangle
        (["a"] * 6, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]),
        # two cycles joined by a path, plus a pendant vertex
        (
            ["a", "b", "a", "b", "a", "b", "a", "c"],
            [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, 1),
             (4, 5, 1), (5, 6, 1), (6, 4, 1), (0, 7, 2)],
        ),
        # a tree component beside a 4-cycle
        (["a"] * 7, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 3, 1)]),
    ],
)
def test_cyclic_pattern_keeps_levels_before_its_last_core_vertex(labels, edges):
    pattern = graph_from_edgelist(labels, edges)
    cp = CompiledPattern(pattern)
    bounds = cp.parity_bounds()
    full = full_table(cp)
    last = last_core_position(pattern, cp.order)
    assert last > 0
    assert bounds[:last] == full[:last]
    assert any(full[:last])
    assert all(level == [] for level in bounds[last:])


def test_extracted_patterns_keep_levels_before_their_last_core_vertex():
    db = generate_aids_like(30, seed=11)
    rng = random.Random(5)
    cyclic = 0
    for num_edges in (4, 8, 12, 16) * 10:
        query = extract_query(db, num_edges, rng)
        cp = CompiledPattern(query)
        last = last_core_position(query, cp.order)
        if last == 0:
            assert cp.parity_bounds() is None
            continue
        cyclic += 1
        bounds = cp.parity_bounds()
        assert bounds[:last] == full_table(cp)[:last]
        assert all(level == [] for level in bounds[last:])
    assert cyclic


def test_path_pattern_keeps_no_bounds():
    assert CompiledPattern(path_graph(["a", "b", "c", "d"])).parity_bounds() is None
