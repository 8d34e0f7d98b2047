"""Cross-group association-count matrix query.

Releases, for a partition of the left nodes and a partition of the right
nodes, the number of associations between every (left group, right group)
pair — the noisy, differentially private analogue of the table published by
the safe-grouping baseline.  This is the natural "who is associated with
what, at group granularity" workload for bipartite graphs and a common
downstream need (e.g. purchases per neighbourhood per drug category).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.partition import Partition
from repro.privacy.sensitivity import group_count_sensitivity, node_count_sensitivity
from repro.queries.base import Query, QueryAnswer

Node = Hashable


class CrossGroupCountQuery(Query):
    """Association counts between left-side groups and right-side groups.

    Parameters
    ----------
    left_partition:
        Partition of (a subset of) the left nodes.
    right_partition:
        Partition of (a subset of) the right nodes.

    Notes
    -----
    * Under **individual** adjacency one association lies in exactly one
      (left group, right group) cell, so the L1 sensitivity is 1.
    * Under **group** adjacency with a protection partition ``P``, removing a
      protected group removes every association incident to it; each such
      association changes exactly one cell by one, so the L1 sensitivity is
      the largest number of associations incident to any protected group —
      identical to the global-count sensitivity — and the L2 sensitivity is
      bounded by the same value (we report the L1 value, a safe bound).
    """

    name = "cross_group_count"

    def __init__(self, left_partition: Partition, right_partition: Partition):
        if not isinstance(left_partition, Partition) or not isinstance(right_partition, Partition):
            raise ValidationError("left_partition and right_partition must be Partition instances")
        overlap = left_partition.universe() & right_partition.universe()
        if overlap:
            raise ValidationError(
                f"left and right partitions overlap on {len(overlap)} node(s); they must cover "
                "disjoint sides of the bipartite graph"
            )
        self.left_partition = left_partition
        self.right_partition = right_partition

    def cell_labels(self) -> List[str]:
        """Labels of the flattened matrix, row-major (left group, right group)."""
        return [
            f"{left_id}|{right_id}"
            for left_id in self.left_partition.group_ids()
            for right_id in self.right_partition.group_ids()
        ]

    def true_matrix(self, graph: BipartiteGraph) -> np.ndarray:
        """The exact count matrix (num left groups x num right groups)."""
        left_ids = self.left_partition.group_ids()
        right_ids = self.right_partition.group_ids()
        left_index = {gid: i for i, gid in enumerate(left_ids)}
        right_index = {gid: j for j, gid in enumerate(right_ids)}
        matrix = np.zeros((len(left_ids), len(right_ids)), dtype=float)
        for left, right in graph.associations():
            if not self.left_partition.contains_element(left):
                continue
            if not self.right_partition.contains_element(right):
                continue
            i = left_index[self.left_partition.group_of(left).group_id]
            j = right_index[self.right_partition.group_of(right).group_id]
            matrix[i, j] += 1.0
        return matrix

    def evaluate(self, graph: BipartiteGraph) -> QueryAnswer:
        matrix = self.true_matrix(graph)
        return QueryAnswer(name=self.name, values=matrix.ravel(), labels=self.cell_labels())

    def evaluate_arrays(self, graph: BipartiteGraph, arrays: Optional[GraphArrays] = None) -> QueryAnswer:
        arrays = arrays if arrays is not None else graph.arrays()
        matrix = arrays.cross_group_matrix(self.left_partition, self.right_partition)
        return QueryAnswer(name=self.name, values=matrix.ravel(), labels=self.cell_labels())

    def l1_sensitivity(
        self, graph: BipartiteGraph, adjacency: str = "individual", partition: Optional[Partition] = None
    ) -> float:
        self._require_partition(adjacency, partition)
        if adjacency == "individual":
            return 1.0
        if adjacency == "node":
            return node_count_sensitivity(graph)
        return group_count_sensitivity(graph, partition)

    def answer_as_matrix(self, answer: Dict[str, float]) -> Dict[Tuple[str, str], float]:
        """Convert a released flat answer back into a (left, right) -> value mapping."""
        result: Dict[Tuple[str, str], float] = {}
        for label, value in answer.items():
            if "|" not in label:
                raise ValidationError(f"malformed cross-group label {label!r}")
            left_id, right_id = label.split("|", 1)
            result[(left_id, right_id)] = value
        return result

    @classmethod
    def from_attributes(
        cls, graph: BipartiteGraph, left_attribute: str, right_attribute: str
    ) -> "CrossGroupCountQuery":
        """Build the query from node attributes on each side (e.g. zipcode x category)."""
        from repro.grouping.attribute_grouping import partition_by_attribute

        left = partition_by_attribute(graph, left_attribute, side=Side.LEFT, include_other_side=False)
        right = partition_by_attribute(graph, right_attribute, side=Side.RIGHT, include_other_side=False)
        return cls(left, right)
