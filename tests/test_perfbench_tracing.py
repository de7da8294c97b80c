"""The benchmark's tracer must find every name it patches.

``perfbench/tracing.py`` swaps module and class attributes of the query
and maintenance path for span-recording wrappers, so deleting or
renaming one of them breaks every traced benchmark run.  These tests
load the tracer by path, enter and leave ``instrumented`` and run both
query pipelines under it, so the info callbacks that read
``filter_candidates``' result and ``center_prune``'s candidate list run
too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core import TreePiConfig, TreePiIndex, engine, treepi
from repro.datasets import extract_query_workload, generate_aids_like
from repro.mining import SupportFunction
from repro.storage.posting import PostingList
from repro.storage.segments import SegmentStore

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

#: Every owner the tracer patches attributes on.
OWNERS = (engine, treepi, TreePiIndex, PostingList, SegmentStore)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrumented_patches_and_restores(tracing):
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracing.instrumented(tracing.Tracer()):
        patched = [
            name
            for owner, saved in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if saved.get(name) is not value
        ]
    assert "filter_candidates" in patched and "center_prune" in patched
    assert [dict(vars(owner)) for owner in OWNERS] == before


def test_traced_pipelines_record_their_info(tracing):
    db = generate_aids_like(12, avg_atoms=16, seed=3)
    index = TreePiIndex.build(
        db, TreePiConfig(SupportFunction(2, 2.0, 4), gamma=1.1, seed=5)
    )
    queries = extract_query_workload(db, 8, 4, seed=8).queries
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        for query in queries:
            index.query(query)
            index.query_paper(query)
    info = {}
    for name, _, _, _, _, value in tracer.spans:
        info.setdefault(name, []).append(value)
    assert {"plan", "verify", "partition.rp", "filter", "center_prune"} <= set(info)
    assert all(isinstance(count, int) for count in info["filter"])
    assert all(kept <= given for given, kept in info["center_prune"])
    assert all(isinstance(plan["sfq_size"], int) for plan in info["plan"])
