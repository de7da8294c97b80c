"""Unit tests for the LabeledGraph / GraphDatabase substrate."""

import pytest

from repro.exceptions import GraphError
from repro.graphs import GraphDatabase, LabeledGraph, edge_key


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            edge_key(2, 2)


class TestConstruction:
    def test_empty_graph(self):
        g = LabeledGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_add_vertex_returns_consecutive_ids(self):
        g = LabeledGraph()
        assert g.add_vertex("a") == 0
        assert g.add_vertex("b") == 1
        assert g.vertex_labels() == ("a", "b")

    def test_constructor_edges(self):
        g = LabeledGraph(["a", "b", "c"], [(0, 1, 1), (1, 2, 2)])
        assert g.num_edges == 2
        assert g.edge_label(0, 1) == 1
        assert g.edge_label(2, 1) == 2

    def test_add_edge_is_undirected(self):
        g = LabeledGraph(["a", "b"])
        g.add_edge(1, 0, "x")
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.edge_label(0, 1) == "x"

    def test_duplicate_edge_rejected(self):
        g = LabeledGraph(["a", "b"], [(0, 1, 1)])
        with pytest.raises(GraphError):
            g.add_edge(1, 0, 2)

    def test_unknown_vertex_rejected(self):
        g = LabeledGraph(["a"])
        with pytest.raises(GraphError):
            g.add_edge(0, 5, 1)

    def test_edge_label_missing_edge(self):
        g = LabeledGraph(["a", "b"])
        with pytest.raises(GraphError):
            g.edge_label(0, 1)


class TestAccessors:
    def test_degree_and_neighbors(self, small_tree):
        assert small_tree.degree(0) == 3
        assert sorted(small_tree.neighbors(0)) == [1, 2, 3]
        assert dict(small_tree.neighbor_items(2)) == {0: 1, 4: 1}

    def test_edges_iterates_each_edge_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)

    def test_edge_set(self, triangle):
        assert triangle.edge_set() == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_has_edge_out_of_range_is_false(self, triangle):
        assert not triangle.has_edge(0, 99)


class TestPredicates:
    def test_connected(self, triangle):
        assert triangle.is_connected()

    def test_disconnected(self):
        g = LabeledGraph(["a", "b", "c"], [(0, 1, 1)])
        assert not g.is_connected()

    def test_empty_graph_is_connected(self):
        assert LabeledGraph().is_connected()

    def test_tree_detection(self, small_tree, triangle):
        assert small_tree.is_tree()
        assert not triangle.is_tree()

    def test_single_vertex_is_tree(self):
        assert LabeledGraph(["a"]).is_tree()

    def test_empty_graph_is_not_tree(self):
        assert not LabeledGraph().is_tree()

    def test_connected_components(self):
        g = LabeledGraph(["a"] * 5, [(0, 1, 1), (3, 4, 1)])
        assert g.connected_components() == [[0, 1], [2], [3, 4]]


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        c = triangle.copy()
        c.add_vertex("x")
        assert c.num_vertices == 4
        assert triangle.num_vertices == 3

    def test_copy_preserves_graph_id(self, triangle):
        triangle.graph_id = 17
        assert triangle.copy().graph_id == 17
        assert triangle.copy(graph_id=3).graph_id == 3

    def test_subgraph_from_edges(self, small_tree):
        sub, remap = small_tree.subgraph_from_edges([(0, 2), (2, 4)])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert sub.vertex_labels() == ("a", "b", "c")
        assert remap[0] == 0 and remap[2] == 1 and remap[4] == 2

    def test_subgraph_preserves_edge_labels(self, small_tree):
        sub, remap = small_tree.subgraph_from_edges([(0, 3)])
        assert sub.edge_label(remap[0], remap[3]) == 2

    def test_relabeled_roundtrip(self, small_tree):
        perm = [4, 0, 3, 1, 2]
        h = small_tree.relabeled(perm)
        back = h.relabeled([perm.index(i) for i in range(5)])
        assert back.structure_equal(small_tree)

    def test_relabeled_requires_permutation(self, triangle):
        with pytest.raises(GraphError):
            triangle.relabeled([0, 0, 1])


class TestSignatures:
    def test_structure_equal(self, triangle):
        assert triangle.structure_equal(triangle.copy())

    def test_structure_not_equal_on_label_change(self, triangle):
        other = LabeledGraph(["C", "C", "O"], [(0, 1, 1), (1, 2, 1), (2, 0, 2)])
        assert not triangle.structure_equal(other)

    def test_repr_mentions_sizes(self, triangle):
        assert "|V|=3" in repr(triangle)
        assert "|E|=3" in repr(triangle)


class TestGraphDatabase:
    def test_add_assigns_stable_ids(self, triangle, small_tree):
        db = GraphDatabase()
        assert db.add(triangle) == 0
        assert db.add(small_tree) == 1
        assert triangle.graph_id == 0

    def test_ids_not_reused_after_remove(self, triangle, small_tree):
        db = GraphDatabase([triangle])
        db.remove(0)
        assert db.add(small_tree) == 1

    def test_lookup_and_contains(self, triangle):
        db = GraphDatabase([triangle])
        assert 0 in db
        assert db[0] is triangle
        assert 1 not in db

    def test_remove_unknown_raises(self):
        with pytest.raises(GraphError):
            GraphDatabase().remove(4)

    def test_getitem_unknown_raises(self):
        with pytest.raises(GraphError):
            GraphDatabase()[0]

    def test_average_edge_count(self, triangle, small_tree):
        db = GraphDatabase([triangle, small_tree])
        assert db.average_edge_count() == pytest.approx(3.5)

    def test_average_edge_count_empty(self):
        assert GraphDatabase().average_edge_count() == 0.0

    def test_iteration_order(self, triangle, small_tree):
        db = GraphDatabase([triangle, small_tree])
        assert [g.graph_id for g in db] == [0, 1]
        assert db.graph_ids() == [0, 1]
