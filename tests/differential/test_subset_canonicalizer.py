"""Differential suite: per-query subset canonicalization vs building subgraphs.

The planners canonicalize a query's edge subsets through one
:class:`~repro.trees.canonical.SubsetCanonicalizer` per query, which
reads labels from tables it formatted once.  For every connected edge
subset of up to η edges of every query of the 30 differential corpora,
and of up to 6 edges of seeded 16-edge extractions (the serving
workload's query size), ``form(edges)`` must equal
``tree_canonical_form`` of the subgraph the edges induce, with the
center mapped back to query ids, and be ``None`` exactly when the
subset closes a cycle.  Its canonical order must be a pre-order of the
key, and nothing it returns may depend on the order or orientation in
which the edges arrive.  Each sweep must meet both
vertex- and edge-centered trees.

Labels that ``repr`` renders with the characters the encoding itself
uses (``(``, ``,``, ``|``, quotes) and non-string labels are pinned
separately, on a graph whose subsets take every shape, cycles included.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Tuple

import pytest

from repro.datasets import extract_query_workload, generate_aids_like
from repro.graphs import LabeledGraph
from repro.graphs.graph import Edge
from repro.trees.canonical import SubsetCanonicalizer, tree_canonical_form
from repro.trees.center import Center

from tests.differential.test_answer_sets import (
    CHEMICAL_SEEDS,
    SYNTHETIC_SEEDS,
    corpus_params,
    make_corpus,
)
from tests.differential.test_matcher_equivalence import CONFIG

ETA = CONFIG.support.eta


def connected_subsets(graph: LabeledGraph, max_size: int) -> List[FrozenSet[Edge]]:
    """Every connected edge subset of up to ``max_size`` edges, cycles too."""
    incident: Dict[int, List[Edge]] = {}
    for u, v, _ in graph.edges():
        incident.setdefault(u, []).append((u, v))
        incident.setdefault(v, []).append((u, v))
    level = {frozenset([(u, v)]) for u, v, _ in graph.edges()}
    found: List[FrozenSet[Edge]] = []
    for _ in range(max_size):
        found.extend(sorted(level, key=sorted))
        level = {
            subset | {edge}
            for subset in level
            for w in {w for e in subset for w in e}
            for edge in incident[w]
            if edge not in subset
        }
    return found


def reference_form(
    graph: LabeledGraph, edges: FrozenSet[Edge]
) -> Optional[Tuple[str, Center]]:
    """Build the subgraph, canonicalize it, map its center back."""
    sub, remap = graph.subgraph_from_edges(edges)
    if not sub.is_tree():
        return None
    key, center = tree_canonical_form(sub)
    back = {new: old for old, new in remap.items()}
    return key, tuple(sorted(back[c] for c in center))


def assert_canonical_order(
    graph: LabeledGraph,
    edges: FrozenSet[Edge],
    key: str,
    center: Center,
    order: Tuple[int, ...],
) -> None:
    """``order`` must be a pre-order of ``key`` over the subset's vertices.

    Re-emits the string walking the subset from ``order[0]`` with every
    vertex's children in ascending ``order`` position (an edge center's
    other half after the first): the walk must visit the vertices in
    ``order`` and spell ``key``.
    """
    position = {vertex: i for i, vertex in enumerate(order)}
    adjacent: Dict[int, List[int]] = {vertex: [] for vertex in order}
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    walk: List[int] = []

    def emit(vertex: int, parent: Optional[int], incoming: str) -> str:
        walk.append(vertex)
        kids = sorted(
            (w for w in adjacent[vertex] if w != parent), key=position.__getitem__
        )
        return (
            f"({incoming},{graph.vertex_label(vertex)!r}"
            + "".join(emit(w, vertex, repr(graph.edge_label(vertex, w))) for w in kids)
            + ")"
        )

    assert len(order) == len(edges) + 1 == len(position)
    first = order[0]
    if len(center) == 1:
        assert center == (first,)
        emitted = "V:" + emit(first, None, "#")
    else:
        assert first in center
        second = center[1] if first == center[0] else center[0]
        emitted = (
            f"E[{graph.edge_label(first, second)!r}]:"
            f"{emit(first, second, '#')}|{emit(second, first, '#')}"
        )
    assert (emitted, tuple(walk)) == (key, order), sorted(edges)


def assert_forms_match(graph: LabeledGraph, max_size: int) -> Counter:
    """Check every connected subset; tally vertex/edge-centered and cyclic."""
    form = SubsetCanonicalizer(graph).form
    kinds: Counter = Counter()
    for subset in connected_subsets(graph, max_size):
        expected = reference_form(graph, subset)
        got = form(subset)
        assert (got if got is None else got[:2]) == expected, sorted(subset)
        if got is not None:
            assert_canonical_order(graph, subset, *got)
        # Reversed order, flipped orientation: the same form and order.
        flipped = tuple((v, u) for u, v in sorted(subset, reverse=True))
        assert form(flipped) == got, sorted(subset)
        kinds["cyclic" if expected is None else expected[0][0]] += 1
    return kinds


@pytest.mark.parametrize(
    "kind,seed",
    corpus_params(CHEMICAL_SEEDS, "chemical")
    + corpus_params(SYNTHETIC_SEEDS, "synthetic"),
)
def test_corpus_subsets_match_subgraph_canonicalization(kind, seed):
    _, queries = make_corpus(kind, seed)
    kinds: Counter = Counter()
    for query in queries:
        kinds += assert_forms_match(query, ETA)
    # Both center shapes occur in every corpus ("V:" / "E[" keys).
    assert kinds["V"] and kinds["E"]


@pytest.mark.parametrize("seed", [1, 2])
def test_sixteen_edge_extractions(seed):
    # Up to 6 edges: a vertex-centered tree needs 5 for a non-center
    # vertex with two children of its own.
    db = generate_aids_like(12, avg_atoms=24, seed=seed)
    kinds: Counter = Counter()
    for query in extract_query_workload(db, 16, 3, seed=seed * 100 + 16).queries:
        kinds += assert_forms_match(query, 6)
    assert kinds["V"] and kinds["E"]


@pytest.mark.parametrize(
    "vertex_labels,edge_labels",
    [
        ([0, 1, 2, 1, 0, 3], [7, 7, 8, 9, 7]),
        ([(1, "a"), (2,), (1, "a"), (), (2,), None], [(0,), (0, 1), None, (0,), 2.5]),
        (["(a", "a,b", "x|y", "'q'", '"q"', ")"], ["|", "(", ",", "'", '"']),
        (["a", "(a,", "a", "'a'", "a|", "a"], ["(#,", "E[", ")", "1", "'"]),
    ],
    ids=["ints", "tuples", "separators", "encoding-lookalikes"],
)
def test_labels_that_repr_awkwardly(vertex_labels, edge_labels):
    # Centered at 0, with two children below 1, plus the chord (2, 3):
    # subsets of every shape occur, vertex- and edge-centered trees, a
    # non-center vertex whose children must be sorted, and a cycle.
    edges = [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)]
    graph = LabeledGraph(
        vertex_labels,
        [(u, v, label) for (u, v), label in zip(edges, edge_labels)]
        + [(2, 3, edge_labels[0])],
    )
    kinds = assert_forms_match(graph, graph.num_edges)
    assert kinds["V"] and kinds["E"] and kinds["cyclic"]
