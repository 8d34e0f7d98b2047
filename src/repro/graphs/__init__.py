"""Bipartite association-graph substrate.

The paper models private data as *bipartite association graphs*: nodes on the
left side are one kind of entity (e.g. authors, patients, viewers), nodes on
the right side another kind (papers, drugs, movies), and each edge is one
association (``author a wrote paper p``).  This package provides the graph
data structure used by every other subsystem, plus builders, statistics,
induced-subgraph utilities and I/O.
"""

from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.graphs.builders import (
    from_association_list,
    from_biadjacency,
    from_networkx,
    to_networkx,
)
from repro.graphs.stats import (
    GraphSummary,
    association_count,
    cross_association_count,
    degree_histogram,
    degree_sequence,
    density,
    summarize,
)
from repro.graphs.subgraphs import (
    induced_subgraph,
    restrict_left,
    restrict_right,
    subgraph_association_count,
)
from repro.graphs.io import (
    read_edge_list,
    write_edge_list,
    read_json,
    write_json,
)

__all__ = [
    "BipartiteGraph",
    "GraphArrays",
    "Side",
    "from_association_list",
    "from_biadjacency",
    "from_networkx",
    "to_networkx",
    "GraphSummary",
    "association_count",
    "cross_association_count",
    "degree_histogram",
    "degree_sequence",
    "density",
    "summarize",
    "induced_subgraph",
    "restrict_left",
    "restrict_right",
    "subgraph_association_count",
    "read_edge_list",
    "write_edge_list",
    "read_json",
    "write_json",
]
