"""The subgraph miner's trees are exactly the subtree miner's patterns.

Under one threshold function, :class:`~repro.mining.FrequentSubgraphMiner`
(gIndex's miner) and :class:`~repro.mining.FrequentSubtreeMiner` must agree
on every tree: the same classes, once the subgraph miner's DFS-code keys
are mapped through :func:`~repro.trees.canonical.tree_canonical_string`,
with equal support sets and equal embedding counts per graph.  A frequent
tree's one-edge-smaller subtrees are trees, so the subgraph miner reaches
every frequent tree through trees alone; the two miners differ only in
their keys and in the cycle-closing extensions trees never take.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.datasets import generate_aids_like
from repro.graphs import GraphDatabase
from repro.mining import FrequentSubgraphMiner, FrequentSubtreeMiner, SupportFunction
from repro.trees.canonical import tree_canonical_string

# class key -> (support set, embedding count per graph)
Classes = Dict[str, Tuple[frozenset, Dict[int, int]]]


def _classes(patterns) -> Classes:
    return {
        key: (
            pattern.support_set(),
            {gid: len(embs) for gid, embs in pattern.embeddings.items()},
        )
        for key, pattern in patterns
    }


def _agree(db: GraphDatabase, support: SupportFunction) -> int:
    trees = FrequentSubtreeMiner(db, support).mine()
    graphs = FrequentSubgraphMiner(db, support, max_size=support.max_size).mine()
    graph_trees = _classes(
        (tree_canonical_string(p.graph), p)
        for p in graphs.patterns.values()
        if p.graph.num_edges == p.graph.num_vertices - 1
    )
    expected = _classes(trees.patterns.items())
    assert sorted(graph_trees) == sorted(expected)
    for key, want in expected.items():
        assert graph_trees[key] == want, key
    return len(expected)


@pytest.mark.parametrize("eta, classes", [(4, 224), (5, 260)])
def test_the_miners_agree_on_every_tree(eta, classes):
    db = GraphDatabase(generate_aids_like(30, seed=3))
    assert _agree(db, SupportFunction(2, 2.0, eta)) == classes


def test_the_miners_agree_on_perfbench_database():
    db = GraphDatabase(generate_aids_like(200, seed=11))
    assert _agree(db, SupportFunction(2, 2.0, 4)) == 830
