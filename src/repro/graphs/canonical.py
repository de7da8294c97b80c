"""Canonical labels for arbitrary labeled graphs (minimum DFS code).

TreePi only ever canonicalizes *trees* (cheap, see :mod:`repro.trees`), but
the gIndex baseline it is compared against indexes arbitrary frequent
subgraphs, which require a canonical form for general graphs — the very
cost the paper argues against.  We implement gSpan-style minimum DFS
codes: enumerate all valid depth-first traversals of the graph, encode
each as a sequence of edge entries, and keep the lexicographically
smallest sequence.

Entries ``(i, j, label_i, label_edge, label_j)`` are compared in gSpan's
DFS-code order: backward edges before forward edges, backward edges by
ascending destination, forward edges by *descending* origin depth (extend
from the rightmost vertex first), then labels.  We keep, per growth step,
only the states that realize the minimal next entry; with gSpan's order
the greedy prefix always extends to a complete traversal, so the
construction is exact without enumerating every traversal in full.

Worst-case cost is exponential (graph canonization has no known polynomial
algorithm) — exactly the asymmetry between TreePi and gIndex that Section
6 measures.  Patterns handled here are small (≤ ~10 edges).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis import contracts as _contracts
from repro.graphs.graph import LabeledGraph

# One DFS-code entry: (i, j, vertex_label_i, edge_label, vertex_label_j)
# with i, j discovery indices; forward edges have j == i + ... > i, backward
# edges have j < i.  Labels are repr()-ed so heterogeneous labels compare.
Entry = Tuple[int, int, str, str, str]


class _State:
    """A partial DFS traversal: discovery order plus the rightmost path."""

    __slots__ = ("vertex_at", "index_of", "rightmost_path", "used_edges")

    def __init__(
        self,
        vertex_at: List[int],
        index_of: Dict[int, int],
        rightmost_path: List[int],
        used_edges: frozenset,
    ) -> None:
        self.vertex_at = vertex_at          # dfs index -> graph vertex
        self.index_of = index_of            # graph vertex -> dfs index
        self.rightmost_path = rightmost_path  # dfs indices, root..rightmost
        self.used_edges = used_edges        # frozenset of (u, v) graph keys, u < v


def _ekey(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _entry_sort_key(entry: Entry) -> Tuple:
    """gSpan DFS-code order as a sortable key.

    All entries compared during growth extend states with the *same* code
    prefix, hence the same index structure, which makes this key agree with
    gSpan's pairwise ≺ relation: backward edges sort before forward edges,
    backward edges by ascending destination index, forward edges by
    descending origin depth (the rightmost vertex extends first), and ties
    break on labels.
    """
    i, j, li, le, lj = entry
    if i < j or i == j:  # forward edge (or single-vertex sentinel)
        return (1, j, -i, li, le, lj)
    return (0, i, j, li, le, lj)


def _extensions(graph: LabeledGraph, state: _State) -> List[Tuple[Entry, _State]]:
    """All valid one-edge DFS extensions of ``state`` with their entries."""
    out: List[Tuple[Entry, _State]] = []
    rindex = state.rightmost_path[-1]
    rvertex = state.vertex_at[rindex]

    # Backward edges: from the rightmost vertex to an earlier vertex on the
    # rightmost path (skipping its DFS parent, whose edge is already used).
    for pidx in state.rightmost_path[:-1]:
        pvertex = state.vertex_at[pidx]
        if not graph.has_edge(rvertex, pvertex):
            continue
        key = _ekey(rvertex, pvertex)
        if key in state.used_edges:
            continue
        entry: Entry = (
            rindex,
            pidx,
            repr(graph.vertex_label(rvertex)),
            repr(graph.edge_label(rvertex, pvertex)),
            repr(graph.vertex_label(pvertex)),
        )
        nxt = _State(
            state.vertex_at,
            state.index_of,
            state.rightmost_path,
            state.used_edges | {key},
        )
        out.append((entry, nxt))

    # Forward edges: from any vertex on the rightmost path to a new vertex.
    new_index = len(state.vertex_at)
    for pos, fidx in enumerate(state.rightmost_path):
        fvertex = state.vertex_at[fidx]
        for nbr, elabel in graph.neighbor_items(fvertex):
            if nbr in state.index_of:
                continue
            entry = (
                fidx,
                new_index,
                repr(graph.vertex_label(fvertex)),
                repr(elabel),
                repr(graph.vertex_label(nbr)),
            )
            nxt = _State(
                state.vertex_at + [nbr],
                {**state.index_of, nbr: new_index},
                state.rightmost_path[: pos + 1] + [new_index],
                state.used_edges | {_ekey(fvertex, nbr)},
            )
            out.append((entry, nxt))
    return out


def _minimum_dfs(graph: LabeledGraph) -> Tuple[Tuple[Entry, ...], Tuple[int, ...]]:
    """The minimal DFS code and one traversal that realizes it.

    The traversal is given as its vertices in discovery order: the
    ``i``-th vertex is the one the code calls ``i``.  Since the code
    spells every vertex label and every edge in those indices, two
    graphs with equal codes are isomorphic through their orders, paired
    position by position.
    """
    if graph.num_vertices == 0:
        return (), ()
    if graph.num_edges == 0:
        if graph.num_vertices > 1:
            raise ValueError("minimum_dfs_code requires a connected graph")
        return ((0, 0, repr(graph.vertex_label(0)), "", ""),), (0,)

    # Seed states: every directed edge realizing the minimal first entry.
    best_first: Optional[Entry] = None
    seeds: List[_State] = []
    for u, v, elabel in graph.edges():
        for a, b in ((u, v), (v, u)):
            entry: Entry = (
                0,
                1,
                repr(graph.vertex_label(a)),
                repr(elabel),
                repr(graph.vertex_label(b)),
            )
            if best_first is None or _entry_sort_key(entry) < _entry_sort_key(best_first):
                best_first = entry
                seeds = []
            if entry == best_first:
                seeds.append(
                    _State([a, b], {a: 0, b: 1}, [0, 1], frozenset({_ekey(a, b)}))
                )

    code: List[Entry] = [best_first]  # type: ignore[list-item]
    states = seeds
    for _ in range(graph.num_edges - 1):
        best_entry: Optional[Entry] = None
        survivors: List[_State] = []
        for st in states:
            for entry, nxt in _extensions(graph, st):
                if best_entry is None or _entry_sort_key(entry) < _entry_sort_key(best_entry):
                    best_entry = entry
                    survivors = [nxt]
                elif entry == best_entry:
                    survivors.append(nxt)
        if best_entry is None:
            raise ValueError("minimum_dfs_code requires a connected graph")
        code.append(best_entry)
        states = survivors
    return tuple(code), tuple(states[0].vertex_at)


def minimum_dfs_code(graph: LabeledGraph) -> Tuple[Entry, ...]:
    """The lexicographically minimal DFS code of a connected graph.

    Single-vertex graphs get a sentinel one-entry code carrying the vertex
    label; the empty graph gets an empty code.
    """
    return _minimum_dfs(graph)[0]


def canonical_form(graph: LabeledGraph) -> Tuple[str, Tuple[int, ...]]:
    """Canonical label plus the vertices in the order the label names them.

    ``order[i]`` is the vertex with DFS index ``i`` in one traversal
    realizing the minimal code, so two graphs with equal labels are
    isomorphic through ``dict(zip(order_1, order_2))``.
    """
    code, order = _minimum_dfs(graph)
    label = "|".join(f"{i},{j},{li},{le},{lj}" for (i, j, li, le, lj) in code)
    if _contracts.contracts_enabled():
        _contracts.check_graph_canonical_invariance(graph, label)
    return label, order


def canonical_label(graph: LabeledGraph) -> str:
    """A string canonical label: equal iff the graphs are isomorphic."""
    return canonical_form(graph)[0]
