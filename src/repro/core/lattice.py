"""The feature lattice: SF_q grown one edge at a time through a memo.

Serving gathers SF_q (Section 5.1) by growing the query's connected edge
subsets breadth-first, one edge per level, and looking each subset's
canonical string (Section 4.2.2) up in the feature index.  Canonicalizing
every subset from scratch repeats the same work across subsets and
queries: the key of a grown subset depends only on the key of the
subset it grew from, on *where* in that tree the new edge attaches and
on the new edge's ``(Le,Lv`` token.

:class:`FeatureLattice` makes that dependency a lookup.  A subset
carries its key and the *canonical positions* of its vertices: vertex
``i`` of the subset sits at node ``positions[i]`` of the key's
pre-order (:meth:`~repro.trees.canonical.SubsetCanonicalizer.form`).
The grow memo maps ``(parent key, attach position, child token)`` to the
child's key and to ``remap``, which carries the parent's positions (and
the new vertex, last) into the child's.  Any two subsets with equal
keys are isomorphic through their positions, so the memo entry is right
for every subset that reaches it.

``keys`` holds the canonical key of every proper subtree of every
indexed feature.  The lattice is downward closed, so a subset whose key
is not in ``keys`` has no indexed supertree and is not grown further;
a child that is neither in ``keys`` nor indexed is remembered as
``None``, without its key.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.contracts import ContractViolation
from repro.core.feature import FeatureTree
from repro.graphs.graph import Edge, LabeledGraph
from repro.trees.canonical import SubsetCanonicalizer

#: A memo key: (parent key, attach position, child token ``(Le,Lv``).
#: A level-1 step grows from one vertex, keyed by its root token ``(#,Lv``.
Step = Tuple[str, int, str]

#: A memo value: (child key, remap), where ``remap[p]`` is the child's
#: position of the parent's position ``p`` and ``remap[-1]`` the new
#: vertex's; ``remap`` is None when the child is not grown further.
Grown = Tuple[str, Optional[Tuple[int, ...]]]


def _leaf_removals(edges: Tuple[Edge, ...]) -> Iterable[Tuple[Edge, ...]]:
    """The tree ``edges`` minus each edge that has a degree-1 end."""
    degree: Dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    for i, (u, v) in enumerate(edges):
        if degree[u] == 1 or degree[v] == 1:
            yield edges[:i] + edges[i + 1:]


def _lattice_tables(features: Iterable[FeatureTree]) -> Tuple[Set[str], Set[str]]:
    """Proper-subtree keys and child tokens of the features.

    ``keys`` descends by leaf removal, largest features first; a key met
    before is not descended again, since its own subtrees are already
    in.  ``tokens`` holds every ``(Le,Lv`` token, in both directions, of
    the features with at least two edges; a subtree's tokens are its
    supertree's, so a feature already met as a subtree adds none.
    """
    keys: Set[str] = set()
    tokens: Set[str] = set()
    for feature in sorted(features, key=lambda f: -f.size):
        if feature.size < 2 or feature.key in keys:
            continue
        canon = SubsetCanonicalizer(feature.tree)
        for table in canon.child_tokens:
            tokens.update(table.values())
        stack = [tuple((u, v) for u, v, _ in feature.tree.edges())]
        while stack:
            for sub in _leaf_removals(stack.pop()):
                found = canon.form(sub)
                assert found is not None, "a leaf removal keeps a tree"
                if found[0] not in keys:
                    keys.add(found[0])
                    if len(sub) > 1:
                        stack.append(sub)
    return keys, tokens


class FeatureLattice:
    """Proper-subtree keys of the indexed features, plus the grow memo.

    Built by :class:`~repro.core.treepi.TreePiIndex` from its features
    (after a build, a load or a rebuild).  Inserts add only single-edge
    features, which have no proper subtrees, and no maintenance removes
    a feature, so ``keys`` and every memo entry stay valid for the
    index's lifetime.  The memo grows while serving; concurrent plans
    may fill it, and every write is idempotent: a step always maps to
    the same value.  Only steps the features can take are stored, so
    the memo holds at most ``|keys| * η`` steps per child token of the
    features, plus two level-1 steps per single edge in ``keys`` or
    indexed; labels that only queries carry add none.
    """

    __slots__ = ("keys", "memo", "_tokens", "_indexed")

    def __init__(
        self, features: Iterable[FeatureTree], indexed: Container[str]
    ) -> None:
        self.keys, self._tokens = _lattice_tables(features)
        self.memo: Dict[Step, Optional[Grown]] = {}
        self._indexed = indexed

    def grow(
        self,
        step: Step,
        canon: SubsetCanonicalizer,
        edges: Sequence[Edge],
        verts: Sequence[int],
        positions: Sequence[int],
        new: int,
    ) -> Optional[Grown]:
        """Canonicalize a subset the memo misses and remember its step.

        ``edges`` is the grown subset, ``verts`` and ``positions`` the
        parent's vertices and their canonical positions, ``new`` the
        vertex the step adds.  Ranking the vertices by position makes
        ``canon.form`` order equal sibling subtrees the same way for every
        subset that takes this step, so the stored remap is a function
        of the step alone.

        A step whose token no feature has leads to no indexed supertree;
        it is neither canonicalized nor stored.  A level-1 step always
        returns its key, since a missing single edge proves the query
        unanswerable, but is stored only for a single edge in ``keys``
        or indexed.
        """
        if len(edges) > 1 and step[2] not in self._tokens:
            return None
        rank = dict(zip(verts, positions))
        rank[new] = len(positions)
        found = canon.form(edges, rank)
        assert found is not None, "the enumeration only grows trees"
        key, _, order = found
        grown: Optional[Grown]
        if key in self.keys:
            remap = [0] * len(order)
            for i, vertex in enumerate(order):
                remap[rank[vertex]] = i
            grown = (key, tuple(remap))
        elif key in self._indexed:
            grown = (key, None)
        elif len(edges) == 1:
            return key, None
        else:
            grown = None
        self.memo[step] = grown
        return grown

    def check_hit(
        self,
        query: LabeledGraph,
        canon: SubsetCanonicalizer,
        edges: Sequence[Edge],
        verts: Sequence[int],
        positions: Sequence[int],
        grown: Optional[Grown],
    ) -> None:
        """Runtime contract on a memo hit: re-derive it through ``canon``.

        ``verts`` lists the grown subset's vertices, the new one last,
        and ``positions`` the parent's canonical positions.  A ``None``
        hit must be a key outside the lattice; otherwise the key must
        equal the fresh key, and the remapped positions must map the
        subset's labeled edges onto the same numbered tree as the fresh
        canonical order does.
        """
        found = canon.form(edges)
        assert found is not None, "the enumeration only grows trees"
        key, _, order = found
        if grown is None:
            if key in self.keys or key in self._indexed:
                raise ContractViolation(
                    f"lattice memo dropped {key!r}, which is indexed or "
                    f"in the lattice"
                )
            return
        if grown[0] != key:
            raise ContractViolation(
                f"lattice memo gave {grown[0]!r} for a subset whose key "
                f"is {key!r}"
            )
        remap = grown[1]
        if remap is None:
            if key in self.keys:
                raise ContractViolation(
                    f"lattice memo stops growing {key!r}, which has an "
                    f"indexed supertree"
                )
            return
        child = [remap[p] for p in positions] + [remap[-1]]

        def image(
            vertices: Sequence[int], numbers: Sequence[int]
        ) -> Tuple[List[str], List[tuple]]:
            place = dict(zip(vertices, numbers))
            labels = [""] * len(numbers)
            for vertex, p in zip(vertices, numbers):
                labels[p] = repr(query.vertex_label(vertex))
            return labels, sorted(
                (min(place[u], place[v]), max(place[u], place[v]),
                 repr(query.edge_label(u, v)))
                for u, v in edges
            )

        if sorted(child) != list(range(len(order))) or image(
            verts, child
        ) != image(order, range(len(order))):
            raise ContractViolation(
                f"lattice positions {tuple(child)} do not map the subset "
                f"{sorted(edges)} onto the canonical order of {key!r}"
            )
