"""Degree-histogram query.

Used by the extended examples ("how many authors wrote k papers?"); not part
of the paper's evaluation but a natural companion workload whose sensitivity
under group adjacency the library computes correctly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.graphs.stats import degree_sequence
from repro.grouping.partition import Partition
from repro.privacy.sensitivity import group_degree_histogram_sensitivity
from repro.queries.base import Query, QueryAnswer


class DegreeHistogramQuery(Query):
    """Histogram of node degrees on one side, with a fixed number of bins.

    Parameters
    ----------
    side:
        Which side's degrees to histogram (default left).
    max_degree:
        Degrees above this value are clamped into the last bin, which also
        caps the query's sensitivity under node adjacency.
    """

    name = "degree_histogram"

    def __init__(self, side: Side = Side.LEFT, max_degree: int = 50):
        self.side = Side(side)
        if max_degree <= 0:
            raise ValueError(f"max_degree must be positive, got {max_degree}")
        self.max_degree = int(max_degree)

    def evaluate(self, graph: BipartiteGraph) -> QueryAnswer:
        degrees = degree_sequence(graph, self.side)
        clamped = np.minimum(degrees, self.max_degree)
        counts = np.bincount(clamped, minlength=self.max_degree + 1).astype(float)
        labels = [f"degree={d}" for d in range(self.max_degree)] + [f"degree>={self.max_degree}"]
        return QueryAnswer(name=self.name, values=counts, labels=labels)

    def evaluate_arrays(self, graph: BipartiteGraph, arrays: Optional[GraphArrays] = None) -> QueryAnswer:
        arrays = arrays if arrays is not None else graph.arrays()
        counts = arrays.degree_histogram(self.side, self.max_degree).astype(float)
        labels = [f"degree={d}" for d in range(self.max_degree)] + [f"degree>={self.max_degree}"]
        return QueryAnswer(name=self.name, values=counts, labels=labels)

    def _most_neighbours_here(self, graph: BipartiteGraph) -> int:
        """The largest number of this side's nodes one opposite node touches."""
        arrays = graph.arrays()
        degrees = arrays.right_degrees if self.side is Side.LEFT else arrays.left_degrees
        return int(degrees.max(initial=0))

    def l1_sensitivity(
        self, graph: BipartiteGraph, adjacency: str = "individual", partition: Optional[Partition] = None
    ) -> float:
        self._require_partition(adjacency, partition)
        if adjacency == "individual":
            # Adding/removing one association moves one node between two bins.
            return 2.0
        if adjacency == "node":
            # Removing a node on this side takes 1 from its bin.  Removing an
            # opposite node with k neighbours here moves each of them down one
            # bin (-1 and +1): 2k.  ``max_degree`` clamps this side's degrees,
            # not k, so k is measured on the graph.
            return max(1.0, 2.0 * self._most_neighbours_here(graph))
        return group_degree_histogram_sensitivity(graph, partition, self.side)

    def l2_sensitivity(
        self, graph: BipartiteGraph, adjacency: str = "individual", partition: Optional[Partition] = None
    ) -> float:
        self._require_partition(adjacency, partition)
        if adjacency == "group":
            return group_degree_histogram_sensitivity(graph, partition, self.side, norm="l2")
        if adjacency == "node":
            # The k moving neighbours can all leave one bin for the next:
            # (+k, -k), so L2 is k * sqrt(2), not sqrt(L1).
            return max(1.0, float(np.sqrt(2.0)) * self._most_neighbours_here(graph))
        # One association moves one node by one bin.
        return float(np.sqrt(2.0))
