"""Labeled-graph substrate: structures, isomorphism, distances, canonical labels."""

from repro.graphs.graph import Edge, GraphDatabase, LabeledGraph, edge_key
from repro.graphs.builders import (
    cycle_graph,
    from_networkx,
    graph_from_edgelist,
    path_graph,
    star_graph,
    to_networkx,
)
from repro.graphs.canonical import canonical_label, minimum_dfs_code
from repro.graphs.distances import (
    DistanceOracle,
    bfs_distances,
    diameter,
    eccentricity,
    shortest_path_length,
)
from repro.graphs.metrics import (
    DatabaseProfile,
    cyclomatic_number,
    degree_histogram,
    graph_density,
    label_entropy,
    profile_database,
)
from repro.graphs.isomorphism import (
    are_isomorphic,
    automorphisms,
    count_embeddings,
    is_subgraph_isomorphic,
    subgraph_monomorphisms,
)
from repro.graphs.random_subgraph import (
    random_connected_edge_subset,
    random_connected_subgraph,
    random_spanning_tree_edges,
)
from repro.graphs.serialization import (
    dump_graph,
    dumps_database,
    iter_graphs,
    load_database,
    loads_database,
    save_database,
)

__all__ = [
    "Edge",
    "GraphDatabase",
    "LabeledGraph",
    "edge_key",
    "graph_from_edgelist",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "to_networkx",
    "from_networkx",
    "canonical_label",
    "minimum_dfs_code",
    "DistanceOracle",
    "bfs_distances",
    "diameter",
    "eccentricity",
    "shortest_path_length",
    "DatabaseProfile",
    "cyclomatic_number",
    "degree_histogram",
    "graph_density",
    "label_entropy",
    "profile_database",
    "are_isomorphic",
    "automorphisms",
    "count_embeddings",
    "is_subgraph_isomorphic",
    "subgraph_monomorphisms",
    "random_connected_edge_subset",
    "random_connected_subgraph",
    "random_spanning_tree_edges",
    "dump_graph",
    "dumps_database",
    "iter_graphs",
    "load_database",
    "loads_database",
    "save_database",
]
