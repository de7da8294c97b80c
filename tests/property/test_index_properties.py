"""Property-based tests for the full TreePi index.

The hypothesis harness builds small random databases and random connected
queries and checks the end-to-end contract against brute force; this is
the strongest guard against subtle completeness bugs in filtering, center
pruning, or reconstruction.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SequentialScan
from repro.core import TreePiConfig, TreePiIndex
from repro.graphs import GraphDatabase, random_connected_subgraph
from repro.mining import SupportFunction

from tests.property.strategies import connected_graphs


@st.composite
def database_and_query(draw):
    graphs = draw(
        st.lists(connected_graphs(min_vertices=3, max_vertices=7), min_size=3, max_size=7)
    )
    db = GraphDatabase([g.copy() for g in graphs])
    host = graphs[draw(st.integers(0, len(graphs) - 1))]
    m = draw(st.integers(1, max(1, min(5, host.num_edges))))
    seed = draw(st.integers(0, 10_000))
    query = random_connected_subgraph(host, m, random.Random(seed))
    return db, query


@given(database_and_query(), st.sampled_from([1.0, 1.2, 2.0]))
@settings(max_examples=40, deadline=None)
def test_query_equals_brute_force(db_query, gamma):
    db, query = db_query
    config = TreePiConfig(
        SupportFunction(alpha=2, beta=2.0, eta=3), gamma=gamma, seed=3
    )
    index = TreePiIndex.build(db, config)
    scan = SequentialScan(db)
    assert index.query(query).matches == scan.support_set(query)


@given(database_and_query(), st.sampled_from([1.0, 1.3]))
@settings(max_examples=40, deadline=None)
def test_reconstruction_verifier_equals_brute_force(db_query, gamma):
    """The paper's prune + reconstruction pipeline, on every query size."""
    db, query = db_query
    config = TreePiConfig(
        SupportFunction(alpha=2, beta=2.0, eta=3), gamma=gamma, seed=8
    )
    index = TreePiIndex.build(db, config)
    scan = SequentialScan(db)
    assert index.query_paper(query).matches == scan.support_set(query)


@given(database_and_query())
@settings(max_examples=25, deadline=None)
def test_center_prune_toggle_equivalence(db_query):
    """Center pruning must never change answers, only candidate counts."""
    db, query = db_query
    config = TreePiConfig(SupportFunction(2, 2.0, 3), gamma=1.1, seed=4)
    index = TreePiIndex.build(db, config)
    assert index.query_paper(query).matches == index.query(query).matches


@given(database_and_query())
@settings(max_examples=25, deadline=None)
def test_insert_then_query_consistent(db_query):
    """Inserting the query's host graph can only add that graph's id."""
    db, query = db_query
    config = TreePiConfig(SupportFunction(2, 2.0, 3), gamma=1.0, seed=5)
    index = TreePiIndex.build(db, config)
    before = index.query(query).matches
    donor = db[db.graph_ids()[0]].copy()
    new_id = index.insert(donor)
    after = index.query(query).matches
    assert before <= after
    assert after - before <= {new_id}
