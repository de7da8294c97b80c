"""GraphGrep baseline (Shasha, Wang & Giugno, PODS 2002) — path-based index.

GraphGrep fingerprints every graph by the multiset of label-paths up to a
maximum length.  A candidate must contain at least as many occurrences of
every query path as the query itself; survivors are verified naively.
The paper's introduction uses GraphGrep as the representative of
path-based indexing whose paths "lose a large amount of structural
information" — Figure-10-style comparisons against it show why tree
features filter better.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.statistics import QueryResult
from repro.exceptions import IndexError_
from repro.graphs.graph import GraphDatabase, LabeledGraph
from repro.graphs.isomorphism import is_subgraph_isomorphic
from repro.storage import LabelInterner, PostingList

# A path fingerprint: alternating vertex and edge labels, canonically
# oriented (the lexicographically smaller of the two read directions).
PathKey = Tuple


@dataclass(frozen=True)
class GraphGrepConfig:
    """``max_length`` is the maximum path length in edges (Daylight's lp)."""

    max_length: int = 4


def _path_key(labels: List) -> PathKey:
    forward = tuple(map(repr, labels))
    backward = tuple(reversed(forward))
    return min(forward, backward)


def path_fingerprint(graph: LabeledGraph, max_length: int) -> Dict[PathKey, int]:
    """Counts of all simple label-paths of 1..max_length edges in ``graph``.

    Each undirected path is counted once (both traversal directions
    collapse onto the canonical orientation).
    """
    counts: Dict[PathKey, int] = {}

    def walk(current: int, visited: Set[int], labels: List) -> None:
        depth = len(visited) - 1
        if depth >= 1:
            key = _path_key(labels)
            counts[key] = counts.get(key, 0) + 1
        if depth == max_length:
            return
        for nxt, elabel in graph.neighbor_items(current):
            if nxt in visited:
                continue
            visited.add(nxt)
            labels.append(elabel)
            labels.append(graph.vertex_label(nxt))
            walk(nxt, visited, labels)
            labels.pop()
            labels.pop()
            visited.discard(nxt)

    for start in graph.vertices():
        walk(start, {start}, [graph.vertex_label(start)])
    # Every path was discovered from both endpoints; halve the counts.
    return {key: count // 2 for key, count in counts.items()}


class GraphGrepBaseline:
    """A built GraphGrep index over one graph database.

    Storage is the shared posting substrate: path keys are interned once
    per database (:class:`~repro.storage.LabelInterner`), each graph's
    fingerprint maps interned key → occurrence count, and an inverted
    index keeps one sorted :class:`~repro.storage.PostingList` per path
    key.  Filtering intersects the postings of the query's paths
    smallest-first and only then applies the per-graph count threshold —
    candidate discovery no longer scans every fingerprint.
    """

    def __init__(self, database: GraphDatabase, config: GraphGrepConfig) -> None:
        if len(database) == 0:
            raise IndexError_("cannot build an index over an empty database")
        self._db = database
        self._config = config
        start = time.perf_counter()
        self._paths = LabelInterner()
        self._fingerprints: Dict[int, Dict[int, int]] = {}
        inverted: Dict[int, List[int]] = {}
        for gid in database.graph_ids():  # already ascending
            raw = path_fingerprint(database[gid], config.max_length)
            interned = {
                self._paths.intern(key): count
                for key, count in sorted(raw.items())
            }
            self._fingerprints[gid] = interned
            for key_id in interned:
                inverted.setdefault(key_id, []).append(gid)
        # Graph ids were visited in ascending order, so each inverted row
        # is already strictly increasing.
        self._postings: Dict[int, PostingList] = {
            key_id: PostingList.from_sorted(gids)
            for key_id, gids in sorted(inverted.items())
        }
        self.build_seconds = time.perf_counter() - start

    @property
    def database(self) -> GraphDatabase:
        return self._db

    def index_size(self) -> int:
        """Total number of (graph, path) fingerprint entries."""
        return sum(len(fp) for fp in self._fingerprints.values())

    def storage_bytes(self) -> int:
        """Resident bytes of the inverted posting columns."""
        return sum(p.nbytes() for _, p in sorted(self._postings.items()))

    def query(self, query: LabeledGraph) -> QueryResult:
        phases: Dict[str, float] = {}
        t0 = time.perf_counter()
        needed = path_fingerprint(query, self._config.max_length)
        candidates = self._filter(needed)
        phases["filter"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        matches = frozenset(
            gid
            for gid in candidates  # _filter returns ascending ids
            if is_subgraph_isomorphic(query, self._db[gid])
        )
        phases["verification"] = time.perf_counter() - t0
        return QueryResult(
            matches=matches,
            candidates_after_filter=len(candidates),
            candidates_after_prune=len(candidates),
            phase_seconds=phases,
        )

    def _filter(self, needed: Dict[PathKey, int]) -> Sequence[int]:
        """Graphs whose fingerprint dominates ``needed``, in id order.

        Posting intersection finds the graphs containing *every* query
        path at least once; the count threshold (a graph must contain at
        least as many occurrences as the query) is then checked against
        the survivors' interned fingerprints only.
        """
        if not needed:
            return self._db.universe_posting()
        requirements: List[Tuple[int, int]] = []
        for key in sorted(needed):
            key_id = self._paths.get(key)
            if key_id is None:
                return []  # this path occurs in no database graph
            requirements.append((key_id, needed[key]))
        shared = PostingList.intersect_many(
            [self._postings[key_id] for key_id, _ in requirements]
        )
        return [
            gid
            for gid in shared
            if all(
                self._fingerprints[gid].get(key_id, 0) >= count
                for key_id, count in requirements
            )
        ]
