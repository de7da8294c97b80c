"""gIndex baseline (Yan, Yu & Han, SIGMOD 2004) — the paper's comparator.

gIndex indexes *arbitrary* frequent subgraphs selected by a discriminative
ratio, filters candidates by support-set intersection, and verifies with a
naive (unanchored) subgraph-isomorphism test.  Its three structural
disadvantages versus TreePi — exponential canonical labels, subgraph
enumeration at query time, and no location information — are what Section
6 measures, so they are reproduced faithfully here:

* features are mined with the size-increasing support ψ(l) and selected by
  the discriminative ratio γ_min against already-selected subpatterns,
* query processing enumerates the connected frequent subgraphs of the
  query (apriori-pruned through the full frequent map), intersects the
  support sets of indexed ones, and
* verification runs the generic matcher from scratch on every candidate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Union

from repro.core.statistics import QueryResult
from repro.exceptions import IndexError_
from repro.graphs.canonical import canonical_label
from repro.graphs.graph import Edge, GraphDatabase, LabeledGraph, edge_key
from repro.graphs.isomorphism import is_subgraph_isomorphic
from repro.mining.subgraph_miner import FrequentSubgraphMiner, gindex_psi
from repro.storage import PostingList

SupportSets = Mapping[str, Union[PostingList, FrozenSet[int], Iterable[int]]]


def _as_postings(supports: SupportSets) -> Dict[str, PostingList]:
    """Normalize label→support mappings onto the shared posting substrate."""
    return {
        key: value if isinstance(value, PostingList) else PostingList(value)
        for key, value in supports.items()
    }


def _maximal_subpattern_keys(pattern: LabeledGraph) -> List[str]:
    """Canonical labels of the connected one-edge-removed subpatterns."""
    keys: Set[str] = set()
    all_edges = list(pattern.edges())
    for drop in range(len(all_edges)):
        keep = [
            edge_key(u, v)
            for idx, (u, v, _) in enumerate(all_edges)
            if idx != drop
        ]
        if not keep:
            continue
        sub, _ = pattern.subgraph_from_edges(keep)
        if sub.is_connected():
            keys.add(canonical_label(sub))
    return sorted(keys)


@dataclass(frozen=True)
class GIndexConfig:
    """Section 6.1's gIndex settings.

    * ``max_size`` — maxL, the largest indexed fragment (paper: 10),
    * ``min_discriminative_ratio`` — γ_min (paper: 2.0),
    * ``max_support_fraction`` — Θ (paper: 0.1 N),
    * ``psi`` — optional override of the size-increasing support function.
    """

    max_size: int = 10
    min_discriminative_ratio: float = 2.0
    max_support_fraction: float = 0.1
    psi: Optional[Callable[[int], float]] = None


@dataclass
class GIndexStats:
    num_features: int
    num_frequent: int
    features_by_size: Dict[int, int]
    build_seconds: float


class GIndexBaseline:
    """A built gIndex over one graph database."""

    def __init__(
        self,
        database: GraphDatabase,
        config: GIndexConfig,
        frequent: SupportSets,
        selected: SupportSets,
        stats: GIndexStats,
    ) -> None:
        self._db = database
        self._config = config
        # canonical label -> support posting list (all ψ-frequent / selected)
        self._frequent = _as_postings(frequent)
        self._selected = _as_postings(selected)
        self._stats = stats

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, database: GraphDatabase, config: GIndexConfig) -> "GIndexBaseline":
        if len(database) == 0:
            raise IndexError_("cannot build an index over an empty database")
        start = time.perf_counter()
        psi = config.psi or gindex_psi(
            config.max_size, config.max_support_fraction, len(database)
        )
        mined = FrequentSubgraphMiner(database, psi, max_size=config.max_size).mine()

        frequent: Dict[str, PostingList] = {
            key: PostingList(pattern.support_set())
            for key, pattern in mined.patterns.items()
        }

        # Discriminative selection, smallest patterns first: keep a pattern
        # when the intersection of its already-selected subpatterns' support
        # sets is at least γ_min times larger than its own support set.
        selected: Dict[str, PostingList] = {}
        by_size = sorted(mined.patterns.values(), key=lambda p: p.size)
        for pattern in by_size:
            if pattern.size == 1:
                selected[pattern.key] = frequent[pattern.key]
                continue
            intersection: Optional[PostingList] = None
            for sub_key in _maximal_subpattern_keys(pattern.graph):
                support = selected.get(sub_key)
                if support is None:
                    continue
                intersection = (
                    support
                    if intersection is None
                    else intersection.intersect(support)
                )
            if intersection is None:
                selected[pattern.key] = frequent[pattern.key]
                continue
            ratio = len(intersection) / max(1, pattern.support)
            if ratio >= config.min_discriminative_ratio:
                selected[pattern.key] = frequent[pattern.key]

        sizes: Dict[int, int] = {}
        for key in selected:
            size = mined.patterns[key].size
            sizes[size] = sizes.get(size, 0) + 1
        stats = GIndexStats(
            num_features=len(selected),
            num_frequent=len(frequent),
            features_by_size=sizes,
            build_seconds=time.perf_counter() - start,
        )
        return cls(database, config, frequent, selected, stats)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> GIndexStats:
        return self._stats

    @property
    def database(self) -> GraphDatabase:
        return self._db

    def feature_count(self) -> int:
        return len(self._selected)

    # ------------------------------------------------------------------
    def query(self, query: LabeledGraph) -> QueryResult:
        """Enumerate query subgraphs, intersect supports, verify naively."""
        phases: Dict[str, float] = {}
        t0 = time.perf_counter()
        found = self._enumerate_indexed_subgraphs(query)
        phases["enumerate"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        empty_proof = False
        if found:
            # Smallest-first adaptive k-way intersection; the universe
            # initializer is only materialized when no feature applies.
            candidates = PostingList.intersect_many(
                [self._selected[key] for key in sorted(found)]
            )
        else:
            candidates = self._db.universe_posting()
        # A single query edge that is not even ψ-frequent at size 1 (σ=1
        # there) occurs nowhere: the answer is provably empty.
        for u, v, elabel in query.edges():
            probe = LabeledGraph(
                [query.vertex_label(u), query.vertex_label(v)], [(0, 1, elabel)]
            )
            if canonical_label(probe) not in self._frequent:
                empty_proof = True
                break
        if empty_proof:
            candidates = PostingList()
        phases["filter"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        matches = frozenset(
            gid
            for gid in candidates  # posting lists iterate in sorted order
            if is_subgraph_isomorphic(query, self._db[gid])
        )
        phases["verification"] = time.perf_counter() - t0
        return QueryResult(
            matches=matches,
            sfq_size=len(found),
            candidates_after_filter=len(candidates),
            candidates_after_prune=len(candidates),  # gIndex has no pruning stage
            phase_seconds=phases,
        )

    # ------------------------------------------------------------------
    def _enumerate_indexed_subgraphs(self, query: LabeledGraph) -> Set[str]:
        """Connected frequent subgraphs of the query, up to maxL edges.

        Grows connected edge subsets breadth-first; a subset whose canonical
        label is not ψ-frequent cannot be extended into a frequent one
        (support is anti-monotone), which keeps the enumeration tractable —
        exactly gIndex's apriori pruning.
        """
        found: Set[str] = set()
        seen_sets: Set[FrozenSet[Edge]] = set()
        frontier: List[FrozenSet[Edge]] = []
        for u, v, _ in query.edges():
            es = frozenset({edge_key(u, v)})
            seen_sets.add(es)
            frontier.append(es)

        label_cache: Dict[FrozenSet[Edge], str] = {}

        def label_of(es: FrozenSet[Edge]) -> str:
            label = label_cache.get(es)
            if label is None:
                sub, _ = query.subgraph_from_edges(es)
                label = canonical_label(sub)
                label_cache[es] = label
            return label

        size = 1
        while frontier and size <= self._config.max_size:
            next_frontier: List[FrozenSet[Edge]] = []
            for es in frontier:
                label = label_of(es)
                if label not in self._frequent:
                    continue
                if label in self._selected:
                    found.add(label)
                if size == self._config.max_size:
                    continue
                touched = {w for e in es for w in e}
                for u in touched:
                    for v in query.neighbors(u):
                        key = edge_key(u, v)
                        if key in es:
                            continue
                        extended = es | {key}
                        if extended not in seen_sets:
                            seen_sets.add(extended)
                            next_frontier.append(extended)
            frontier = next_frontier
            size += 1
        return found
