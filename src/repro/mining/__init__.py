"""Frequent-pattern mining: subtrees (TreePi) and subgraphs (gIndex baseline)."""

from repro.mining.patterns import Embedding, MinedPattern
from repro.mining.shrink import (
    ShrinkReport,
    leaf_removed_subtrees,
    shrink_feature_set,
    shrunk_covers,
)
from repro.mining.subgraph_miner import FrequentSubgraphMiner, gindex_psi
from repro.mining.subtree_miner import (
    FrequentSubtreeMiner,
    MiningResult,
    MiningStats,
)
from repro.mining.support import PAPER_AIDS_SUPPORT, SupportFunction

__all__ = [
    "Embedding",
    "MinedPattern",
    "ShrinkReport",
    "leaf_removed_subtrees",
    "shrink_feature_set",
    "shrunk_covers",
    "FrequentSubgraphMiner",
    "gindex_psi",
    "FrequentSubtreeMiner",
    "MiningResult",
    "MiningStats",
    "PAPER_AIDS_SUPPORT",
    "SupportFunction",
]
