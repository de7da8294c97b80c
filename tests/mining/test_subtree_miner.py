"""Unit tests for the frequent subtree miner."""

import pytest

from repro.graphs import GraphDatabase, LabeledGraph, is_subgraph_isomorphic, path_graph
from repro.mining import FrequentSubtreeMiner, SupportFunction
from repro.trees import tree_canonical_string


def mine(db, alpha=1, beta=1.0, eta=3):
    return FrequentSubtreeMiner(db, SupportFunction(alpha, beta, eta)).mine()


@pytest.fixture
def two_paths_db():
    # Two identical paths a-b-c plus one divergent graph.
    g1 = path_graph(["a", "b", "c"])
    g2 = path_graph(["a", "b", "c"])
    g3 = path_graph(["x", "y"])
    return GraphDatabase([g1, g2, g3])


class TestSingleEdges:
    def test_every_distinct_edge_indexed(self, two_paths_db):
        result = mine(two_paths_db, eta=1)
        keys = {p.key for p in result.patterns.values()}
        assert tree_canonical_string(path_graph(["a", "b"])) in keys
        assert tree_canonical_string(path_graph(["b", "c"])) in keys
        assert tree_canonical_string(path_graph(["x", "y"])) in keys
        assert len(keys) == 3

    def test_single_edge_supports(self, two_paths_db):
        result = mine(two_paths_db, eta=1)
        ab = result.patterns[tree_canonical_string(path_graph(["a", "b"]))]
        assert ab.support_set() == frozenset({0, 1})

    def test_symmetric_edge_has_both_orientations(self):
        db = GraphDatabase([path_graph(["a", "a"])])
        result = mine(db, eta=1)
        (pattern,) = result.patterns.values()
        assert len(pattern.embeddings[0]) == 2  # (0,1) and (1,0)


class TestLevelwiseGrowth:
    def test_path3_found(self, two_paths_db):
        result = mine(two_paths_db, eta=2)
        key = tree_canonical_string(path_graph(["a", "b", "c"]))
        assert key in result.patterns
        assert result.patterns[key].support == 2

    def test_threshold_prunes(self, two_paths_db):
        # sigma(2) = 1 + 3*2 - 3 = 4 > max support 2: no 2-edge survivors.
        result = FrequentSubtreeMiner(
            two_paths_db, SupportFunction(1, 3.0, 2)
        ).mine()
        assert result.by_size(2) == []

    def test_eta_caps_size(self, two_paths_db):
        result = mine(two_paths_db, eta=1)
        assert result.max_size() == 1

    def test_stats_recorded(self, two_paths_db):
        result = mine(two_paths_db, eta=2)
        assert result.stats.patterns_per_level[1] == 3
        assert result.stats.patterns_per_level[2] == 1
        assert result.stats.total_patterns == 4
        assert result.stats.elapsed_seconds >= 0

    def test_branching_tree_patterns(self):
        star_ish = LabeledGraph(
            ["c", "a", "a", "b"], [(0, 1, 1), (0, 2, 1), (0, 3, 1)]
        )
        db = GraphDatabase([star_ish, star_ish.copy()])
        result = mine(db, alpha=3, eta=3)
        key = tree_canonical_string(star_ish)
        assert key in result.patterns
        assert result.patterns[key].support == 2


class TestExactness:
    def test_support_sets_match_brute_force(self, chem_db):
        result = FrequentSubtreeMiner(chem_db, SupportFunction(2, 2.0, 3)).mine()
        some = sorted(result.patterns.values(), key=lambda p: p.key)[::7]
        for pattern in some:
            truth = frozenset(
                g.graph_id
                for g in chem_db
                if is_subgraph_isomorphic(pattern.graph, g)
            )
            assert pattern.support_set() == truth

    def test_embeddings_are_real(self, chem_db):
        result = FrequentSubtreeMiner(chem_db, SupportFunction(2, 2.0, 3)).mine()
        pattern = max(result.patterns.values(), key=lambda p: p.size)
        gid = next(iter(pattern.embeddings))
        graph = chem_db[gid]
        for emb in pattern.iter_embeddings(gid):
            for u, v, label in pattern.graph.edges():
                assert graph.has_edge(emb[u], emb[v])
                assert graph.edge_label(emb[u], emb[v]) == label
            for pv in pattern.graph.vertices():
                assert (
                    graph.vertex_label(emb[pv]) == pattern.graph.vertex_label(pv)
                )

    def test_all_frequent_trees_found(self, two_paths_db):
        # Brute-force the 2-edge trees with support >= 1 and compare.
        result = mine(two_paths_db, eta=2)
        found = {p.key for p in result.patterns.values() if p.size == 2}
        assert found == {tree_canonical_string(path_graph(["a", "b", "c"]))}


class TestEmbeddingCap:
    """There is no cap: every embedding of every pattern is kept."""

    def test_cap_is_gone(self):
        db = GraphDatabase([path_graph(["a"] * 8)])
        with pytest.raises(TypeError):
            FrequentSubtreeMiner(
                db, SupportFunction(1, 1.0, 2), max_embeddings_per_graph=2
            )

    def test_uncapped_finds_more(self):
        db = GraphDatabase([path_graph(["a"] * 8)])
        full = mine(db, alpha=2, eta=2)
        key = tree_canonical_string(path_graph(["a", "a", "a"]))
        # 6 distinct 2-edge sub-paths x 2 orientations
        assert len(full.patterns[key].embeddings[0]) == 12
