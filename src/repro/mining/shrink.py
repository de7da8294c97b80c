"""Feature-set shrinking by the redundancy ratio γ (Section 4.1.2).

For a frequent tree ``r`` with proper subtrees ``r_1..r_n``, anti-monotone
support gives ``|⋂ D_{r_i}| >= |D_r|``.  When the ratio
``|⋂ D_{r_i}| / |D_r|`` is close to 1, the subtrees alone already pin
down ``r``'s support set and ``r`` adds no filtering power, so it is
dropped from the feature set.  The intersection over *all* proper subtrees
equals the intersection over the maximal ones (every subtree contains some
maximal proper subtree's support set), so only leaf-removals are examined.

Single-edge trees are never shrunk: they are the completeness floor of the
whole index (any query can be partitioned into single edges).

:func:`shrunk_covers` goes one step beyond the paper: for each removed
tree it names the indexed features whose supports intersect to the
intersection over the tree's indexed proper subtrees, from which the
index keeps the tree's exact support as an exception list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, FrozenSet, List, Set, Tuple

from repro.graphs.graph import LabeledGraph
from repro.mining.patterns import MinedPattern
from repro.trees.canonical import SubsetCanonicalizer, tree_canonical_string


def leaf_removed_subtrees(tree: LabeledGraph) -> List[Tuple[str, LabeledGraph]]:
    """The maximal proper subtrees of ``tree`` (one per leaf), deduplicated.

    Returns ``(canonical_key, subtree)`` pairs; isomorphic removals collapse
    to a single entry.
    """
    if tree.num_edges < 2:
        return []
    out: Dict[str, LabeledGraph] = {}
    for leaf in tree.vertices():
        if tree.degree(leaf) != 1:
            continue
        keep = [
            (u, v) for u, v, _ in tree.edges() if leaf not in (u, v)
        ]
        sub, _ = tree.subgraph_from_edges(keep)
        out.setdefault(tree_canonical_string(sub), sub)
    return list(out.items())


def _leaf_removal_keys(tree: LabeledGraph) -> List[str]:
    """The keys of :func:`leaf_removed_subtrees`, in the same order.

    One :class:`~repro.trees.canonical.SubsetCanonicalizer` per tree
    canonicalizes every leaf removal as an edge subset, so no subtree is
    built.
    """
    edges = [(u, v) for u, v, _ in tree.edges()]
    if len(edges) < 2:
        return []
    canon = SubsetCanonicalizer(tree)
    keys: Dict[str, None] = {}
    for leaf in tree.vertices():
        if tree.degree(leaf) != 1:
            continue
        form = canon.form([edge for edge in edges if leaf not in edge])
        assert form is not None, "a leaf removal keeps a tree"
        keys.setdefault(form[0])
    return list(keys)


@dataclass
class ShrinkReport:
    """What shrinking did: which canonical keys were removed and why."""

    kept: Dict[str, MinedPattern]
    removed: Dict[str, float]  # canonical key -> redundancy ratio
    #: canonical key -> keys of its leaf-removed subtrees, for every
    #: pattern of two or more edges.
    parents: Dict[str, List[str]]

    @property
    def removed_count(self) -> int:
        return len(self.removed)


def shrink_feature_set(
    frequent: Dict[str, MinedPattern], gamma: float
) -> ShrinkReport:
    """Apply the γ-shrinking rule to a mined frequent-tree set.

    ``frequent`` maps canonical keys to mined patterns (with exact support
    sets) and, as a miner's output, holds every leaf removal of each of
    its trees.  A pattern ``r`` with ``size >= 2`` is removed when
    ``|⋂ D_{r_i}| / |D_r| <= gamma``; subtree supports are always taken
    from the *full* pre-shrink set so removal order cannot matter.
    """
    kept: Dict[str, MinedPattern] = {}
    removed: Dict[str, float] = {}
    parents: Dict[str, List[str]] = {}
    # Canonical-key order: feature ids are assigned by enumerating `kept`,
    # so its insertion order must not depend on mining discovery order.
    for key, pattern in sorted(frequent.items()):
        if pattern.size < 2:
            kept[key] = pattern
            continue
        # Mining is exact under a non-decreasing σ, so every leaf removal
        # of a frequent tree is itself in `frequent`.
        sub_keys = _leaf_removal_keys(pattern.graph)
        parents[key] = sub_keys
        intersection = frozenset.intersection(
            *(frequent[sub_key].support_set() for sub_key in sub_keys)
        )
        ratio = len(intersection) / pattern.support
        if ratio <= gamma:
            removed[key] = ratio
        else:
            kept[key] = pattern
    return ShrinkReport(kept=kept, removed=removed, parents=parents)


def shrunk_covers(
    report: ShrinkReport, indexed: Container[str]
) -> Dict[str, Tuple[str, ...]]:
    """The indexed keys whose supports pin down each removed tree.

    For a removed key ``t`` let ``I(t)`` be the intersection of the
    supports of ``t``'s indexed proper subtrees.  The cover ``S(t)``
    satisfies ``I(t) = ⋂_{f ∈ S(t)} D_f`` and follows the memoised
    recurrence ``S(t) = ∪_p ({p} if p is indexed else S(p))`` over
    ``t``'s leaf-removed parents ``p``: an indexed subtree of ``t`` lies
    in some parent, and an indexed parent's support is inside its own
    subtrees'.  A single edge has no proper subtree, so its cover is empty.
    """
    memo: Dict[str, FrozenSet[str]] = {}

    def cover(key: str) -> FrozenSet[str]:
        if key not in memo:
            found: Set[str] = set()
            for parent in report.parents.get(key, ()):
                found |= {parent} if parent in indexed else cover(parent)
            memo[key] = frozenset(found)
        return memo[key]

    covers: Dict[str, Tuple[str, ...]] = {}
    for key in sorted(report.removed):
        keys = cover(key)
        if keys:
            covers[key] = tuple(sorted(keys))
    return covers
