"""A failed insert leaves the index as it was.

:meth:`~repro.core.treepi.TreePiIndex.insert` matches first and commits
after.  These tests raise at every matching call of one insert in turn:
each tree's first compile, each label-pair refutation and each feature
or exception-list match.  They run on a heap index and on a reopened v3
directory, each with every bitmap built and with no slot table built.

After each failure the database, every store's column, every built
bitmap and the slot table equal their state before the insert, and the
answers equal a scan of the graphs from before the insert.  With bitmaps
built, an answer the caching :class:`~repro.core.engine.QueryEngine`
held before the failure is still served from its cache.  (With no slot
table built, a query would build one, so the answers are checked once
the sweep is over; a half-applied insert would still show there.)
Last, the insert run with no fault gives the same id, columns and
bitmaps as on an untouched twin, and answers equal the scan that
includes the new graph.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.baselines import SequentialScan
from repro.core import QueryEngine, TreePiConfig, TreePiIndex
from repro.core import feature as feature_module
from repro.core import treepi as treepi_module
from repro.datasets import generate_aids_like
from repro.exceptions import GraphError
from repro.graphs import GraphDatabase, LabeledGraph, random_connected_subgraph
from repro.mining import SupportFunction
from repro.persistence import load_index, save_index

CONFIG = TreePiConfig(SupportFunction(2, 2.0, 3), gamma=1.1, seed=7)

_POOL = [g.copy() for g in generate_aids_like(12, avg_atoms=9, seed=41)]


def _donor() -> LabeledGraph:
    """A pool molecule plus one edge of a type no database graph has."""
    graph = generate_aids_like(1, avg_atoms=12, seed=77)[0].copy()
    graph.add_edge(graph.add_vertex("Xq"), 0, 1)
    return graph


DONOR = _donor()


def _queries() -> List[LabeledGraph]:
    rng = random.Random(3)
    hosts = _POOL[:6] + [DONOR]
    return [
        random_connected_subgraph(host, size, rng)
        for host in hosts
        for size in (1, 2, 3, 5)
        if host.num_edges >= size
    ]


QUERIES = _queries()


def _answers(graphs: List[LabeledGraph]) -> List[frozenset]:
    scan = SequentialScan(GraphDatabase([g.copy() for g in graphs]))
    return [scan.support_set(query) for query in QUERIES]


BEFORE = _answers(_POOL)
AFTER = _answers(_POOL + [DONOR])


class InjectedFault(Exception):
    """The failure a test plants inside insert's matching."""


def _open_pair(backing: str, tmp_path) -> Tuple[TreePiIndex, TreePiIndex]:
    """The index under test and an untouched twin of it."""
    built = [
        TreePiIndex.build(GraphDatabase([g.copy() for g in _POOL]), CONFIG)
        for _ in range(2)
    ]
    if backing == "heap":
        return built[0], built[1]
    roots = [tmp_path / "subject", tmp_path / "twin"]
    for index, root in zip(built, roots):
        save_index(index, root, version=3)
    return load_index(roots[0]), load_index(roots[1])


def _trees(index: TreePiIndex) -> list:
    return index.features + index.shrunk


def _tree_id(tree) -> Tuple[str, str]:
    return type(tree).__name__, tree.key


def _state(index: TreePiIndex) -> Dict[str, Any]:
    slots = index._slots
    return {
        "graphs": len(index.database),
        "ids": tuple(index.database.graph_ids()),
        "trees": tuple(_tree_id(t) for t in _trees(index)),
        "columns": tuple(tuple(t.store.graph_ids()) for t in _trees(index)),
        "bitmaps": tuple(t.cached_bitmap for t in _trees(index)),
        "slots": None if slots is None else (tuple(slots._gid_of), sorted(slots._free)),
        "churn": index.churn_fraction,
    }


@contextmanager
def _recording(calls: List[Tuple[str, Any]], trees: Dict[int, Tuple[str, str]]):
    """Log every matching call an insert makes, in order."""
    mono = treepi_module.subgraph_monomorphisms
    refute = treepi_module.label_pair_refuted
    compiled = feature_module.CompiledPattern

    def log_mono(*args, **kwargs):
        calls.append(("match", None))
        return mono(*args, **kwargs)

    def log_refute(*args, **kwargs):
        calls.append(("refute", None))
        return refute(*args, **kwargs)

    def log_compile(tree):
        # A fresh edge-type feature is not in ``trees``: it is matched
        # against nothing, so it never compiles while inserting.
        calls.append(("compile", trees.get(id(tree), ("fresh", ""))))
        return compiled(tree)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treepi_module, "subgraph_monomorphisms", log_mono)
        patch.setattr(treepi_module, "label_pair_refuted", log_refute)
        patch.setattr(feature_module, "CompiledPattern", log_compile)
        yield


@contextmanager
def _fault(kind: str, at: Any, trees: Dict[int, Tuple[str, str]]) -> Iterator[None]:
    """Raise at the ``at``-th call of ``kind``, or when compiling tree ``at``."""
    seen = {"match": 0, "refute": 0}
    mono = treepi_module.subgraph_monomorphisms
    refute = treepi_module.label_pair_refuted
    compiled = feature_module.CompiledPattern

    def counted(name, real):
        def call(*args, **kwargs):
            if kind == name and seen[name] == at:
                raise InjectedFault(f"{name} call {at}")
            seen[name] += 1
            return real(*args, **kwargs)

        return call

    def compile_or_fail(tree):
        if kind == "compile" and trees.get(id(tree)) == at:
            raise InjectedFault(f"first compile of {at}")
        return compiled(tree)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treepi_module, "subgraph_monomorphisms", counted("match", mono))
        patch.setattr(treepi_module, "label_pair_refuted", counted("refute", refute))
        patch.setattr(feature_module, "CompiledPattern", compile_or_fail)
        yield


def _warm(index: TreePiIndex) -> None:
    slots = index.slot_table()
    for tree in _trees(index):
        tree.bitmap(slots)


def _assert_answers(index: TreePiIndex, expected: List[frozenset], step: str) -> None:
    for query, want in zip(QUERIES, expected):
        assert index.query(query).matches == want, step


@pytest.mark.parametrize("built", [True, False], ids=["bitmaps-built", "no-slot-table"])
@pytest.mark.parametrize("backing", ["heap", "v3"])
def test_a_failed_insert_leaves_the_index_untouched(tmp_path, backing, built):
    subject, twin = _open_pair(backing, tmp_path)
    try:
        if built:
            _warm(subject)
            _warm(twin)
        # The twin's insert lists every matching call, in order.
        calls: List[Tuple[str, Any]] = []
        with _recording(calls, {id(t.tree): _tree_id(t) for t in _trees(twin)}):
            twin_gid = twin.insert(DONOR.copy())
        compiles = [at for kind, at in calls if kind == "compile"]
        faults = [("compile", at) for at in compiles] + [
            (kind, i)
            for kind in ("refute", "match")
            for i in range(sum(1 for k, _ in calls if k == kind))
        ]
        assert len(compiles) > 10 and any(k == "ShrunkTree" for k, _ in compiles)
        assert any(kind == "match" for kind, _ in faults)

        engine = QueryEngine(subject, cache_size=len(QUERIES) + 8)
        if built:
            for query, want in zip(QUERIES, BEFORE):
                assert engine.query(query).matches == want
        before = _state(subject)
        trees = {id(t.tree): _tree_id(t) for t in _trees(subject)}
        for kind, at in faults:
            step = f"{backing}: fault at {kind} {at}"
            with _fault(kind, at, trees):
                with pytest.raises(InjectedFault):
                    engine.insert(DONOR.copy())
            assert _state(subject) == before, step
            if built:
                hits = engine.stats.cache_hits
                for query, want in zip(QUERIES, BEFORE):
                    assert engine.query(query).matches == want, step
                assert engine.stats.cache_hits == hits + len(QUERIES), step
                _assert_answers(subject, BEFORE, step)
        if not built:
            assert subject._slots is None
            _assert_answers(subject, BEFORE, f"{backing}: after the sweep")
            _warm(twin)  # the subject's queries built its bitmaps

        gid = engine.insert(DONOR.copy())
        assert gid == twin_gid
        after, expected = _state(subject), _state(twin)
        for key in ("graphs", "ids", "trees", "columns", "slots"):
            assert after[key] == expected[key], key
        if built:
            assert after["bitmaps"] == expected["bitmaps"]
        subject.check_bitmaps()
        for query, want in zip(QUERIES, AFTER):
            assert engine.query(query).matches == want
    finally:
        for index in (subject, twin):
            if index.segment_store is not None:
                index.segment_store.close()


@pytest.mark.parametrize("graph_id", [-1, 0], ids=["negative", "in-use"])
def test_a_refused_graph_id_is_refused_before_any_matching(graph_id):
    index = TreePiIndex.build(GraphDatabase([g.copy() for g in _POOL]), CONFIG)
    before = _state(index)
    with _fault("match", 0, {}), _fault("refute", 0, {}):
        with pytest.raises(GraphError):
            index.insert(DONOR.copy(), graph_id=graph_id)
    assert _state(index) == before
