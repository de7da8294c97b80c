"""Stateful property test: the index under random maintenance workloads.

A hypothesis rule-based state machine interleaves inserts, deletes,
queries, and rebuilds against a live TreePi index while a shadow model
(plain list of graphs + brute-force matcher) tracks ground truth.  Any
divergence — stale support sets, dangling center locations, missed
re-registrations, a support bitmap that disagrees with its column — fails
the run with a minimized command sequence.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.baselines import SequentialScan
from repro.core import TreePiConfig, TreePiIndex
from repro.datasets import generate_aids_like
from repro.graphs import GraphDatabase, is_subgraph_isomorphic, random_connected_subgraph
from repro.mining import SupportFunction

# A fixed pool of donor molecules: hypothesis picks indices out of it.
_POOL = [
    g.copy() for g in generate_aids_like(24, avg_atoms=10, seed=120)
]


class IndexMachine(RuleBasedStateMachine):
    @initialize(start=st.integers(2, 6))
    def build(self, start):
        db = GraphDatabase([_POOL[i].copy() for i in range(start)])
        self.index = TreePiIndex.build(
            db,
            TreePiConfig(SupportFunction(2, 2.0, 3), gamma=1.1, seed=7),
        )
        self.rng = random.Random(99)

    # ------------------------------------------------------------------
    @rule(donor=st.integers(0, len(_POOL) - 1))
    def insert(self, donor):
        self.index.insert(_POOL[donor].copy())

    @precondition(lambda self: len(self.index.database) > 1)
    @rule(pick=st.randoms(use_true_random=False))
    def delete(self, pick):
        victim = pick.choice(self.index.database.graph_ids())
        self.index.delete(victim)

    @precondition(lambda self: len(self.index.database) > 1)
    @rule(pick=st.randoms(use_true_random=False),
          donor=st.integers(0, len(_POOL) - 1))
    def replace(self, pick, donor):
        """Delete, then insert into the freed slot with every bitmap built."""
        slots = self.index.slot_table()
        for tree in self.index.features + self.index.shrunk:
            tree.bitmap(slots)
        size = len(slots)
        self.index.delete(pick.choice(self.index.database.graph_ids()))
        self.index.insert(_POOL[donor].copy())
        assert len(slots) == size  # the insert took the freed slot

    @precondition(lambda self: self.index.needs_rebuild())
    @rule()
    def rebuild(self):
        self.index = self.index.rebuild()

    @rule(host=st.integers(0, len(_POOL) - 1), edges=st.integers(1, 5),
          seed=st.integers(0, 999))
    def query(self, host, edges, seed):
        donor = _POOL[host]
        if donor.num_edges < edges:
            return
        query = random_connected_subgraph(donor, edges, random.Random(seed))
        got = self.index.query(query).matches
        expected = SequentialScan(self.index.database).support_set(query)
        assert got == expected, (sorted(got), sorted(expected))

    # ------------------------------------------------------------------
    @invariant()
    def feature_supports_reference_live_graphs(self):
        live = set(self.index.database.graph_ids())
        for feature in self.index.features:
            assert feature.support_set() <= live

    @invariant()
    def bitmaps_match_columns(self):
        slots = self.index.slot_table()
        for tree in self.index.features + self.index.shrunk:
            bits = tree.cached_bitmap
            if bits is not None:
                assert slots.decode(bits) == list(tree.store.graph_ids())

    @invariant()
    def single_edges_cover_database(self):
        # Completeness floor: every edge of every live graph has a feature
        # — except edges introduced purely by post-build inserts, which
        # maintenance only registers for *existing* features.  Verify the
        # weaker but sufficient invariant: every support id is a graph
        # the feature occurs in, at valid vertex ids.
        for feature in self.index.features:
            for gid in feature.support_posting():
                graph = self.index.database[gid]
                centers = feature.locate_centers(graph)
                assert centers
                for center in centers:
                    assert all(0 <= v < graph.num_vertices for v in center)


IndexMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestIndexMachine = IndexMachine.TestCase
