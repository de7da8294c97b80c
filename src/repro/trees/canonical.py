"""Canonical forms and string representations of labeled trees.

Section 4.2.2: root the tree at its center, represent each node as a
2-tuple ``(Le, Lv)`` (incoming edge label, vertex label), order siblings
recursively, and emit a unique string.  We implement the classic AHU
scheme with labels:

* a rooted subtree encodes as ``(Le,Lv,child_1 child_2 ...)`` with the
  children's encodings sorted lexicographically,
* a vertex-centered tree encodes as ``V:<encoding rooted at the center>``,
* an edge-centered tree splits at the center edge into two halves and
  encodes as ``E[<edge label>]:<sorted half encodings>``.

Two labeled trees are isomorphic **iff** their canonical strings are equal
(AHU correctness + isomorphisms preserve centers), which is what lets
TreePi look up any query subtree in the feature index in polynomial time —
the key asymmetry versus gIndex's exponential graph canonization.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Optional, Tuple

from repro.analysis import contracts as _contracts
from repro.exceptions import NotATreeError
from repro.graphs.graph import Edge, LabeledGraph
from repro.trees.center import Center, tree_center


#: What :meth:`SubsetCanonicalizer.form` returns for a tree: the
#: canonical key, the center in graph ids, the vertices in key pre-order.
SubsetForm = Tuple[str, Center, Tuple[int, ...]]


def _encode_rooted(
    tree: LabeledGraph,
    root: int,
    parent: Optional[int],
    incoming_label: str,
) -> str:
    """AHU encoding of the subtree hanging below ``root`` (iterative DFS).

    The incoming edge label participates in the node 2-tuple exactly as in
    the paper's ``(Le, Lv)`` representation.
    """
    # Post-order without recursion: children encodings must be ready before
    # a node is encoded, so process an explicit stack twice.
    order: List[Tuple[int, Optional[int], str]] = []
    stack: List[Tuple[int, Optional[int], str]] = [(root, parent, incoming_label)]
    while stack:
        node, par, inc = stack.pop()
        order.append((node, par, inc))
        for child, elabel in tree.neighbor_items(node):
            if child != par:
                stack.append((child, node, repr(elabel)))

    encoded: Dict[int, str] = {}
    children: Dict[int, List[str]] = {node: [] for node, _, _ in order}
    for node, par, inc in reversed(order):
        kids = sorted(children[node])
        encoded[node] = f"({inc},{tree.vertex_label(node)!r}" + "".join(kids) + ")"
        if node != root:
            children[par].append(encoded[node])
    return encoded[root]


def rooted_canonical_string(tree: LabeledGraph, root: int) -> str:
    """Canonical string of ``tree`` regarded as rooted at ``root``."""
    if not tree.is_tree():
        raise NotATreeError("rooted_canonical_string requires a tree")
    return _encode_rooted(tree, root, None, "#")


def tree_canonical_string(tree: LabeledGraph) -> str:
    """The center-rooted canonical string — equal iff trees are isomorphic."""
    center = tree_center(tree)
    if len(center) == 1:
        encoded = "V:" + _encode_rooted(tree, center[0], None, "#")
    else:
        a, b = center
        elabel = tree.edge_label(a, b)
        half_a = _encode_rooted(tree, a, b, "#")
        half_b = _encode_rooted(tree, b, a, "#")
        first, second = sorted((half_a, half_b))
        encoded = f"E[{elabel!r}]:{first}|{second}"
    if _contracts.contracts_enabled():
        _contracts.check_canonical_invariance(tree, encoded)
    return encoded


def tree_canonical_form(tree: LabeledGraph) -> Tuple[str, Center]:
    """Canonical string together with the center it was rooted at."""
    return tree_canonical_string(tree), tree_center(tree)


class SubsetCanonicalizer:
    """Canonical forms of one graph's edge subsets, read from label tables.

    Built once per query graph, it formats every label once: each
    vertex's root token ``(#,Lv`` (:attr:`root_tokens`), each directed
    edge's child token ``(Le,Lv`` (leaf to parent, stored as
    ``child_tokens[leaf][parent]``) and each edge's center prefix
    ``E[Le]:``.  :meth:`form` then only concatenates those strings; it
    calls no graph accessor and no ``repr``.
    """

    __slots__ = ("_graph", "root_tokens", "child_tokens", "_center")

    def __init__(self, graph: LabeledGraph) -> None:
        labels = [repr(label) for label in graph.vertex_labels()]
        self._graph = graph
        self.root_tokens = [f"(#,{label}" for label in labels]
        self.child_tokens: List[Dict[int, str]] = [{} for _ in labels]
        self._center: Dict[Edge, str] = {}
        for u, v, elabel in graph.edges():
            le = repr(elabel)
            self.child_tokens[u][v] = f"({le},{labels[u]}"
            self.child_tokens[v][u] = f"({le},{labels[v]}"
            self._center[(u, v)] = f"E[{le}]:"

    def form(
        self,
        edges: Collection[Edge],
        rank: Optional[Mapping[int, int]] = None,
    ) -> Optional[SubsetForm]:
        """Canonical string, center and canonical order of a subset.

        Returns ``(key, center, order)``: ``key`` and ``center`` are
        exactly ``tree_canonical_form(graph.subgraph_from_edges(edges)
        [0])`` with the center given in the graph's vertex ids; ``order``
        lists the subset's vertices in the pre-order of ``key``, so
        ``order[i]`` is the vertex whose ``(Le,Lv`` token opens the
        ``i``-th node of the string.  Returns ``None`` when the edges do
        not form a tree, without building the subgraph.

        One leaf-stripping pass finds the center and, since a stripped
        vertex's one remaining neighbor is its parent in the
        center-rooted tree, builds the AHU encodings bottom-up on the
        way.  Sibling subtrees with equal encodings (an automorphism
        swaps them) are ordered by ``rank[v]``, by vertex id when
        ``rank`` is None, so ``order`` depends only on the vertex-ranked
        edge set, not on the order the edges arrive in.
        """
        root = self.root_tokens
        if len(edges) == 1:
            # A single edge is its own center: no stripping to do.
            [(u, v)] = edges
            center: Center = (u, v) if u < v else (v, u)
            a, b = center
            first, second = root[a] + ")", root[b] + ")"
            if second < first or (
                second == first and rank is not None and rank[b] < rank[a]
            ):
                a, b, first, second = b, a, second, first
            encoded = f"{self._center[center]}{first}|{second}"
            order: Tuple[int, ...] = (a, b)
        else:
            nbrs: Dict[int, List[int]] = {}
            for u, v in edges:
                if u in nbrs:
                    nbrs[u].append(v)
                else:
                    nbrs[u] = [v]
                if v in nbrs:
                    nbrs[v].append(u)
                else:
                    nbrs[v] = [u]
            remaining = len(nbrs)
            if remaining != len(edges) + 1:
                return None  # a tree has one vertex more than edges
            child = self.child_tokens
            # vertex -> its stripped children as (encoding, rank, vertex)
            below: Dict[int, List[Tuple[str, int, int]]] = {}
            # vertex -> its children in canonical order
            ordered: Dict[int, List[int]] = {}
            # Stripping a leaf removes it from its parent's list, so a
            # live vertex lists exactly its live neighbors and a leaf's
            # one entry is its parent.
            layer = [v for v, adj in nbrs.items() if len(adj) == 1]
            while remaining > 2:
                if not layer:
                    return None  # a cycle never loses its vertices to stripping
                remaining -= len(layer)
                next_layer: List[int] = []
                for leaf in layer:
                    adj = nbrs[leaf]
                    if not adj:
                        # Its one neighbor was a leaf of this layer too: a
                        # separate component, so the edges are no tree.
                        return None
                    parent = adj[0]
                    siblings = nbrs[parent]
                    siblings.remove(leaf)
                    kids = below.pop(leaf, None)
                    if kids:
                        kids.sort()
                        ordered[leaf] = [kid[2] for kid in kids]
                        encoded = (
                            child[leaf][parent]
                            + "".join([kid[0] for kid in kids])
                            + ")"
                        )
                    else:
                        encoded = child[leaf][parent] + ")"
                    entry = (encoded, leaf if rank is None else rank[leaf], leaf)
                    if parent in below:
                        below[parent].append(entry)
                    else:
                        below[parent] = [entry]
                    if len(siblings) == 1:
                        next_layer.append(parent)
                layer = next_layer
            # The last layer is what stripping left: the center, each of
            # whose vertices has taken at least one stripped child.
            center = tuple(sorted(layer))
            halves = []
            for c in center:
                kids = below[c]
                kids.sort()
                ordered[c] = [kid[2] for kid in kids]
                halves.append((
                    root[c] + "".join([kid[0] for kid in kids]) + ")",
                    c if rank is None else rank[c],
                    c,
                ))
            if len(halves) == 1:
                encoded = "V:" + halves[0][0]
            else:
                halves.sort()
                encoded = f"{self._center[center]}{halves[0][0]}|{halves[1][0]}"
            # Pre-order: each vertex, then its children's subtrees in
            # canonical order; an edge center's halves in string order.
            walk: List[int] = []
            stack = [half[2] for half in reversed(halves)]
            while stack:
                vertex = stack.pop()
                walk.append(vertex)
                stack.extend(reversed(ordered.get(vertex, ())))
            order = tuple(walk)
        if _contracts.contracts_enabled():
            sub, remap = self._graph.subgraph_from_edges(edges)
            _contracts.check_center(sub, [remap[c] for c in center])
            _contracts.check_canonical_invariance(sub, encoded)
        return encoded, center, order


def edge_subset_canonical_form(
    graph: LabeledGraph, edges: Collection[Edge]
) -> Optional[Tuple[str, Center]]:
    """One-shot :meth:`SubsetCanonicalizer.form`, without the order.

    Formats the whole graph's label tables for one subset; canonicalize
    many subsets of one graph through one :class:`SubsetCanonicalizer`.
    """
    canon = SubsetCanonicalizer(graph).form(edges)
    return None if canon is None else canon[:2]
