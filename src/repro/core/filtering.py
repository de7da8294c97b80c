"""Filtering by support-set intersection (Section 5.2.1, Algorithm 1).

``P_q = ⋂_{t ∈ SF_q ∩ T_D} D_t`` — a graph that misses any feature
subtree of the query cannot contain the query.  Each support is its
feature's bitmap over the index's dense graph slots
(:meth:`~repro.core.feature.IndexedTree.bitmap`), so the intersection
is one ``&`` per feature subtree, and the paper's redundancy note (skip
feature subtrees contained in an already-processed feature) is
subsumed: intersecting a superset support changes nothing.

The ``P_q ← D`` initializer is the paper planner's stage-1 bitmap, never
a copy of the database id set: the pieces' bitmaps are ANDed into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable

from repro.analysis.guards import hot_path
from repro.core.feature import FeatureTree
from repro.core.partition import QueryPiece
from repro.storage import SlotTable


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
    stage1: int,
    pieces: Iterable[QueryPiece],
    lookup: Dict[str, FeatureTree],
    slots: SlotTable,
) -> FilterOutcome:
    """Algorithm 1 over the feature subtree set ``SF_q``.

    ``stage1`` is the ``P_q ← D`` initializer, the paper planner's
    stage-1 filter result as a bitmap over ``slots``.  Every piece is an
    indexed feature: ``RP(q)`` only ends a partition on feature trees or
    single edges, and the planner has already proven every single edge
    indexed.
    """
    candidates = stage1
    for piece in pieces:
        candidates &= lookup[piece.key].bitmap(slots)
    return FilterOutcome(candidates=frozenset(slots.decode(candidates)))
