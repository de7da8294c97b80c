"""Canonical Reconstruction Forms (Section 5.3.1).

Two pairs of matched graphs ``(s1, t1)`` and ``(s2, t2)`` — where
``s1 ≈ s2 ≈ s`` and ``t1 ≈ t2 ≈ t`` overlap only on vertices — form
isomorphic unions iff their *canonical reconstruction forms* coincide:

    crf[s ∪ t, s, t] = ( min over automorphisms f_s of s, f_t of t and
                         orderings p of the shared vertices of
                         [f_s(s-side of p), f_t(t-side of p)],  s, t )

Minimizing over the automorphism groups quotients away every symmetric
renaming, so joining partial reconstructions can be deduplicated by a
plain hashable key instead of running isomorphism tests — the paper's
mechanism for keeping verification cheap.

This module implements the form exactly as defined (it is part of the
paper's contribution and is unit-tested against explicit union-graph
isomorphism).  The verifier in :mod:`repro.core.verification` applies
the idea as its failed-state memo, keyed by piece position, boundary
bindings and used vertices.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Sequence, Tuple

from repro.graphs.graph import LabeledGraph
from repro.graphs.isomorphism import automorphisms

SharedPairs = Sequence[Tuple[int, int]]  # (vertex in s, vertex in t) identified


def canonical_reconstruction_form(
    s: LabeledGraph,
    t: LabeledGraph,
    shared: SharedPairs,
) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], str, str]:
    """``crf[s ∪ t, s, t]`` for a union glued along ``shared`` vertex pairs.

    Returns ``((min s-side array, min t-side array), key(s), key(t))``
    where the arrays range over all automorphism images and all orderings
    of the shared pairs, minimized lexicographically (any fixed partial
    order works, per the paper; we use tuple order).
    """
    from repro.graphs.canonical import canonical_label

    auts_s = automorphisms(s)
    auts_t = automorphisms(t)
    pairs = list(shared)
    best: Tuple[Tuple[int, ...], Tuple[int, ...]] = None  # type: ignore[assignment]
    for ordering in permutations(range(len(pairs))):
        s_side = [pairs[i][0] for i in ordering]
        t_side = [pairs[i][1] for i in ordering]
        for fs in auts_s:
            fs_arr = tuple(fs[v] for v in s_side)
            for ft in auts_t:
                candidate = (fs_arr, tuple(ft[v] for v in t_side))
                if best is None or candidate < best:
                    best = candidate
    if best is None:  # no shared vertices: the union is a disjoint one
        best = ((), ())
    return (best, canonical_label(s), canonical_label(t))


def union_graph(
    s: LabeledGraph, t: LabeledGraph, shared: SharedPairs
) -> LabeledGraph:
    """Materialize ``s ∪ t`` with ``shared`` vertex pairs identified.

    Vertices of ``s`` keep their ids; unshared vertices of ``t`` are
    appended.  Used by tests to validate the CRF theorem (equal CRFs ⇒
    isomorphic unions) against explicit isomorphism checks.
    """
    t_to_union: Dict[int, int] = {tv: sv for sv, tv in shared}
    union = LabeledGraph(list(s.vertex_labels()))
    for tv in t.vertices():
        if tv not in t_to_union:
            t_to_union[tv] = union.add_vertex(t.vertex_label(tv))
    for u, v, label in s.edges():
        union.add_edge(u, v, label)
    for u, v, label in t.edges():
        a, b = t_to_union[u], t_to_union[v]
        if not union.has_edge(a, b):
            union.add_edge(a, b, label)
    return union

