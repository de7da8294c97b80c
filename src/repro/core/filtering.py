"""Filtering by support-set intersection (Section 5.2.1, Algorithm 1).

``P_q = ⋂_{t ∈ SF_q ∩ T_D} D_t`` — a graph that misses any feature
subtree of the query cannot contain the query.  Support posting lists
are intersected smallest-first (:meth:`PostingList.intersect_many`'s
adaptive merge/gallop) with an early exit on empty, and the paper's
redundancy note (skip feature subtrees contained in an already-processed
feature) is subsumed: intersecting a superset support changes nothing.

The ``P_q ← D`` initializer is the paper planner's stage-1 posting list,
never a copy of the database id set: it joins the intersection as one
more posting list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable

from repro.analysis.guards import hot_path
from repro.core.feature import FeatureTree
from repro.core.partition import QueryPiece
from repro.storage import PostingList


@dataclass
class FilterOutcome:
    """The filtered set P_q."""

    candidates: FrozenSet[int]

    @property
    def definitely_empty(self) -> bool:
        """True when filtering alone proves the query has no matches."""
        return not self.candidates


@hot_path
def filter_candidates(
    stage1: PostingList,
    pieces: Iterable[QueryPiece],
    lookup: Dict[str, FeatureTree],
) -> FilterOutcome:
    """Algorithm 1 over the feature subtree set ``SF_q``.

    ``stage1`` is the ``P_q ← D`` initializer, the paper planner's
    stage-1 filter result.  Every piece is an indexed feature: ``RP(q)``
    only ends a partition on feature trees or single edges, and the
    planner has already proven every single edge indexed.
    """
    postings = [lookup[piece.key].support_posting() for piece in pieces]
    postings.append(stage1)
    return FilterOutcome(
        candidates=PostingList.intersect_many(postings).to_frozenset()
    )
