"""Filtering by support-set intersection (Section 5.2.1, Algorithm 1).

``P_q = ⋂_{t ∈ SF_q ∩ T_D} D_t`` — a graph that misses any feature
subtree of the query cannot contain the query.  Support posting lists
are intersected smallest-first (:meth:`PostingList.intersect_many`'s
adaptive merge/gallop) with an early exit on empty, and the paper's
redundancy note (skip feature subtrees contained in an already-processed
feature) is subsumed: intersecting a superset support changes nothing.

The intersection is **seeded from the smallest support set**, not from a
copy of the database universe: the old ``set(universe)`` initializer
cost O(|D|) per query even when ``SF_q`` pinned the candidates to a
handful of graphs.  The universe is only materialized when no feature
applies; otherwise it participates as a constraint on the (already
small) intersection result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

from repro.analysis.guards import hot_path
from repro.core.feature import FeatureTree
from repro.core.partition import QueryPiece
from repro.storage import PostingList

#: The ``P_q ← D`` initializer: either a posting list/set with cheap
#: membership, or any iterable of graph ids (materialized only if needed).
Universe = Union[PostingList, Iterable[int]]


@dataclass
class FilterOutcome:
    """The filtered set P_q plus which pieces actually contributed."""

    candidates: FrozenSet[int]
    used_features: List[FeatureTree]
    missing_key: Optional[str] = None  # a piece key absent from the index

    @property
    def definitely_empty(self) -> bool:
        """True when filtering alone proves the query has no matches."""
        return self.missing_key is not None or not self.candidates

    def posting(self) -> PostingList:
        """The candidate set as a posting list."""
        return PostingList(self.candidates)


def _constrain(result: PostingList, universe: Universe) -> FrozenSet[int]:
    """Intersect a (small) filter result with the universe initializer.

    The universe bounds ``P_q`` from above (callers may pass a stage-1
    pre-filtered subset rather than all of ``D``), so it must still be
    applied — but via O(|result|) membership probes or a posting-list
    merge, never by copying the universe.
    """
    if isinstance(universe, PostingList):
        return result.intersect(universe).to_frozenset()
    if isinstance(universe, (set, frozenset, range)):
        return frozenset(gid for gid in result if gid in universe)
    return result.intersect(PostingList(universe)).to_frozenset()


@hot_path
def filter_candidates(
    universe: Universe,
    pieces: Iterable[QueryPiece],
    lookup: Dict[str, FeatureTree],
    extra_keys: Iterable[str] = (),
) -> FilterOutcome:
    """Algorithm 1 over the feature subtree set ``SF_q``.

    ``universe`` is the ``P_q ← D`` initializer — the full database id
    set, or an already-narrowed subset (e.g. the stage-1 augmentation
    filter result as a :class:`PostingList`).
    A piece whose canonical string the index does not know proves emptiness:
    partitioning only terminates on feature trees or single edges, and a
    single edge missing from the index occurs in no database graph.

    ``extra_keys`` are additional query-subtree canonical strings (e.g. the
    small-subtree augmentation); ones the index does not know are silently
    skipped — they may simply have been γ-shrunk away.
    """
    features: List[FeatureTree] = []
    for piece in pieces:
        feature = lookup.get(piece.key)
        if feature is None:
            return FilterOutcome(
                candidates=frozenset(), used_features=[], missing_key=piece.key
            )
        features.append(feature)
    seen = {f.key for f in features}
    for key in extra_keys:
        feature = lookup.get(key)
        if feature is not None and key not in seen:
            seen.add(key)
            features.append(feature)

    if not features:
        if isinstance(universe, PostingList):
            return FilterOutcome(
                candidates=universe.to_frozenset(), used_features=[]
            )
        return FilterOutcome(candidates=frozenset(universe), used_features=[])

    features.sort(key=lambda f: f.support)
    result = features[0].support_posting()
    used: List[FeatureTree] = [features[0]]
    for feature in features[1:]:
        if not result:
            break
        result = result.intersect(feature.support_posting())
        used.append(feature)
    return FilterOutcome(
        candidates=_constrain(result, universe), used_features=used
    )
