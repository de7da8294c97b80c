"""Integration tests for the directed TreePi index (Section 7.2)."""

import random

import pytest

from repro.core import TreePiConfig
from repro.core import treepi as treepi_module
from repro.directed import (
    DirectedGraphDatabase,
    DirectedLabeledGraph,
    DirectedTreePiIndex,
    extract_directed_query,
    generate_document,
    directed_monomorphisms,
    generate_xml_like,
    is_directed_subgraph_isomorphic,
)
from repro.exceptions import GraphError, IndexError_
from repro.mining import SupportFunction


@pytest.fixture(scope="module")
def xml_db():
    return generate_xml_like(25, avg_elements=8, seed=19)


@pytest.fixture(scope="module")
def xml_index(xml_db):
    config = TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=6)
    return DirectedTreePiIndex.build(xml_db, config)


def brute_force(db, query):
    return frozenset(
        g.graph_id for g in db if is_directed_subgraph_isomorphic(query, g)
    )


class TestBuild:
    def test_empty_rejected(self):
        with pytest.raises(IndexError_):
            DirectedTreePiIndex.build(
                DirectedGraphDatabase(), TreePiConfig(SupportFunction(2, 2.0, 3))
            )

    def test_stats_exposed(self, xml_index):
        assert xml_index.feature_count() > 0
        assert xml_index.stats.build_seconds > 0


class TestQuery:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_directed_brute_force(self, xml_db, xml_index, m):
        rng = random.Random(m)
        for _ in range(6):
            query = extract_directed_query(xml_db, m, rng)
            assert xml_index.query(query).matches == brute_force(xml_db, query)

    def test_direction_sensitivity(self, xml_db, xml_index):
        child = DirectedLabeledGraph(["article", "section"], [(0, 1, "child")])
        reversed_child = DirectedLabeledGraph(
            ["section", "article"], [(0, 1, "child")]
        )
        assert xml_index.query(child).matches == brute_force(xml_db, child)
        assert xml_index.query(reversed_child).matches == brute_force(
            xml_db, reversed_child
        )

    def test_empty_query_rejected(self, xml_index):
        with pytest.raises(GraphError):
            xml_index.query(DirectedLabeledGraph(["a"]))

    def test_disconnected_query_rejected(self, xml_index):
        q = DirectedLabeledGraph(
            ["a", "b", "c", "d"], [(0, 1, 1), (2, 3, 1)]
        )
        with pytest.raises(GraphError):
            xml_index.query(q)


class TestMaintenance:
    def test_insert_and_delete(self, xml_db):
        config = TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=7)
        db = generate_xml_like(10, avg_elements=7, seed=23)
        index = DirectedTreePiIndex.build(db, config)
        rng = random.Random(1)

        new = generate_document(rng, 6)
        gid = index.insert(new)
        query = extract_directed_query(db, 2, rng)
        assert index.query(query).matches == brute_force(db, query)

        index.delete(gid)
        assert gid not in db
        assert index.query(query).matches == brute_force(db, query)

    def test_rebuild_after_churn(self):
        config = TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=8)
        db = generate_xml_like(8, avg_elements=6, seed=29)
        index = DirectedTreePiIndex.build(db, config)
        rng = random.Random(2)
        for _ in range(3):
            index.insert(generate_document(rng, 5))
        assert index.needs_rebuild()
        rebuilt = index.rebuild()
        assert rebuilt.churn_fraction == 0
        query = extract_directed_query(db, 2, rng)
        assert rebuilt.query(query).matches == brute_force(db, query)


class InjectedFault(Exception):
    """The failure a test plants inside the undirected insert's matching."""


class TestInsertAtomicity:
    """A failed insert leaves both databases as they were.

    The fault is raised at each feature match of one insert in turn.
    """

    CONFIG = TreePiConfig(SupportFunction(2, 2.0, 3), gamma=1.1, seed=6)

    @staticmethod
    def _state(index):
        inner = index._inner.database
        return (
            tuple(index.database.graph_ids()),
            tuple(inner.graph_ids()),
            index.churn_fraction,
        )

    @staticmethod
    def _assert_scan_answers(index, queries):
        for query in queries:
            expected = frozenset(
                g.graph_id
                for g in index.database
                if any(directed_monomorphisms(query, g, limit=1))
            )
            assert index.query(query).matches == expected

    def test_a_failed_insert_changes_nothing(self, monkeypatch):
        db = generate_xml_like(20, seed=1)
        index = DirectedTreePiIndex.build(db, self.CONFIG)
        rng = random.Random(4)
        queries = [extract_directed_query(db, m, rng) for m in (1, 2, 3, 4)]
        donor = generate_document(random.Random(9), 10)

        real = treepi_module.subgraph_monomorphisms
        twin = DirectedTreePiIndex.build(generate_xml_like(20, seed=1), self.CONFIG)
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(treepi_module, "subgraph_monomorphisms", counting)
        twin_gid = twin.insert(donor.copy())
        assert len(calls) > 3

        before = self._state(index)
        for at in range(len(calls)):
            seen = []

            def failing(*args, **kwargs):
                if len(seen) == at:
                    raise InjectedFault(f"match call {at}")
                seen.append(None)
                return real(*args, **kwargs)

            monkeypatch.setattr(treepi_module, "subgraph_monomorphisms", failing)
            with pytest.raises(InjectedFault):
                index.insert(donor.copy())
            assert self._state(index) == before, at
        monkeypatch.setattr(treepi_module, "subgraph_monomorphisms", real)
        self._assert_scan_answers(index, queries)

        assert index.insert(donor.copy()) == twin_gid
        assert self._state(index) == self._state(twin)
        self._assert_scan_answers(index, queries)
        index.delete(twin_gid)
        ids, inner_ids, _ = self._state(index)
        assert ids == inner_ids == before[0]
