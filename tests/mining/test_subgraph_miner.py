"""Unit tests for the frequent subgraph miner (gIndex substrate)."""

import pytest

from repro.graphs import (
    GraphDatabase,
    LabeledGraph,
    canonical_label,
    cycle_graph,
    is_subgraph_isomorphic,
    path_graph,
)
from repro.baselines import GIndexConfig
from repro.mining import FrequentSubgraphMiner, gindex_psi


def mine(db, max_size=3, threshold=1):
    return FrequentSubgraphMiner(db, lambda s: threshold, max_size=max_size).mine()


class TestCyclicPatterns:
    def test_triangle_discovered(self):
        tri = cycle_graph(["a", "a", "a"])
        db = GraphDatabase([tri, tri.copy()])
        result = mine(db, max_size=3)
        key = canonical_label(tri)
        assert key in result.patterns
        assert result.patterns[key].support == 2

    def test_square_discovered(self):
        sq = cycle_graph(["a", "b", "a", "b"])
        db = GraphDatabase([sq])
        result = mine(db, max_size=4)
        assert canonical_label(sq) in result.patterns

    def test_tree_miner_would_miss_cycles(self):
        # Sanity: the subgraph miner finds strictly more patterns than
        # trees on cyclic input.
        tri = cycle_graph(["a", "a", "a"])
        db = GraphDatabase([tri])
        result = mine(db, max_size=3)
        cyclic = [p for p in result.patterns.values() if not p.graph.is_tree()]
        assert len(cyclic) == 1


class TestSupportCounting:
    def test_supports_match_brute_force(self, chem_db):
        result = FrequentSubgraphMiner(
            chem_db, lambda s: 3, max_size=3
        ).mine()
        some = sorted(result.patterns.values(), key=lambda p: p.key)[::5]
        for pattern in some:
            truth = frozenset(
                g.graph_id
                for g in chem_db
                if is_subgraph_isomorphic(pattern.graph, g)
            )
            assert pattern.support_set() == truth

    def test_threshold_applied_per_level(self):
        g1 = path_graph(["a", "b", "c"])
        g2 = path_graph(["a", "b"])
        db = GraphDatabase([g1, g2])
        result = mine(db, max_size=2, threshold=2)
        # Only a-b reaches support 2 (b-c and the 2-edge path have support 1).
        assert all(p.size == 1 for p in result.patterns.values())
        assert len(result.patterns) == 1

    def test_max_size_respected(self):
        db = GraphDatabase([path_graph(["a"] * 6)])
        result = mine(db, max_size=2)
        assert result.max_size() == 2


def test_embedding_cap_is_gone():
    db = GraphDatabase([path_graph(["a", "b", "c"])])
    with pytest.raises(TypeError):
        FrequentSubgraphMiner(
            db, lambda s: 1, max_size=2, max_embeddings_per_graph=2
        )
    with pytest.raises(TypeError):
        GIndexConfig(max_size=2, max_embeddings_per_graph=2)


class TestGindexPsi:
    def test_small_sizes_are_one(self):
        psi = gindex_psi(max_size=10, theta=0.1, database_size=1000)
        assert psi(1) == 1
        assert psi(3) == 1

    def test_ramp_capped_at_theta_n(self):
        psi = gindex_psi(max_size=10, theta=0.1, database_size=1000)
        assert psi(10) == pytest.approx(100.0)
        assert psi(4) <= 100.0

    def test_non_decreasing(self):
        psi = gindex_psi(max_size=8, theta=0.2, database_size=500)
        values = [psi(s) for s in range(1, 9)]
        assert values == sorted(values)
