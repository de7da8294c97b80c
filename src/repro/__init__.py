"""TreePi: frequent-subtree graph indexing (Zhang, Hu & Yang, ICDE 2007).

A full reproduction of the TreePi graph-indexing system: build an index
of frequent subtrees over a database of undirected labeled graphs, then
answer containment queries (find every database graph that contains the
query): enumerate the query's indexed subtrees SF_q, filter the database
by their support sets, then verify each candidate with a prefiltered
direct subgraph-isomorphism match.  The paper's partition → center-distance
prune → reconstruct pipeline stays available as ``TreePiIndex.query_paper``.

Quickstart::

    from repro import GraphDatabase, LabeledGraph, TreePiConfig, TreePiIndex
    from repro.mining import SupportFunction

    db = GraphDatabase([...])
    index = TreePiIndex.build(db, TreePiConfig(SupportFunction(2, 2.0, 6)))
    result = index.query(my_query_graph)
    print(result.matches)      # exact support set D_q
"""

from repro.core import (
    EngineStats,
    FeatureTree,
    IndexStats,
    QueryBudget,
    QueryEngine,
    QueryResult,
    TreePiConfig,
    TreePiIndex,
)
from repro.exceptions import (
    BudgetExceeded,
    ConfigError,
    GraphError,
    IndexError_,
    NotATreeError,
    ReproError,
    SerializationError,
)
from repro.approximate import RelaxedQueryEngine
from repro.graphs import GraphDatabase, LabeledGraph
from repro.mining import SupportFunction
from repro.persistence import load_index, save_index

__version__ = "1.0.0"

__all__ = [
    "EngineStats",
    "FeatureTree",
    "IndexStats",
    "QueryBudget",
    "QueryEngine",
    "QueryResult",
    "TreePiConfig",
    "TreePiIndex",
    "BudgetExceeded",
    "ConfigError",
    "GraphError",
    "IndexError_",
    "NotATreeError",
    "ReproError",
    "SerializationError",
    "GraphDatabase",
    "LabeledGraph",
    "SupportFunction",
    "RelaxedQueryEngine",
    "load_index",
    "save_index",
    "__version__",
]
