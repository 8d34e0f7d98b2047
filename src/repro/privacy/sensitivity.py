"""Sensitivity computations for association-count workloads.

Additive-noise mechanisms need the L1 (Laplace/geometric) or L2 (Gaussian)
sensitivity of the query under the adjacency relation being protected.  The
functions here compute those quantities for:

* the paper's headline query — "what is the number of associations in the
  dataset?" — under individual, node and group adjacency; and
* the per-group count *workload* — the vector of induced-subgraph association
  counts, one per group of a partition — which the extended release supports.

Group-level sensitivities are *data- and partition-dependent*: they are
computed from the published grouping, exactly as the paper's pipeline does
(the grouping is itself produced under differential privacy in phase 1, so
using it to calibrate phase-2 noise is standard post-processing of a private
structure plus a fresh mechanism invocation).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Optional

import numpy as np

from repro.exceptions import SensitivityError
from repro.graphs.arrays import NO_GROUP
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.partition import Partition

Node = Hashable


def individual_count_sensitivity() -> float:
    """Sensitivity of the global association count under individual adjacency.

    Adding or removing one association changes the count by exactly 1.
    """
    return 1.0


def node_count_sensitivity(graph: BipartiteGraph, degree_bound: Optional[int] = None) -> float:
    """Sensitivity of the global count under node adjacency (max degree)."""
    degrees = graph.arrays().degrees
    max_degree = int(degrees.max()) if degrees.size else 0
    if degree_bound is not None:
        max_degree = min(max_degree, degree_bound) if max_degree else degree_bound
    return float(max_degree) if max_degree else 1.0


def group_count_sensitivity(graph: BipartiteGraph, partition: Partition) -> float:
    """Sensitivity of the global association count under group adjacency.

    Removing one group ``Gi`` removes every association incident to a node of
    ``Gi``; the sensitivity is therefore the maximum, over groups, of the
    number of associations incident to the group.
    """
    if partition.num_groups() == 0:
        raise SensitivityError("partition has no groups")
    worst = int(graph.arrays().incident_counts(partition).max(initial=0))
    return float(worst) if worst else 1.0


def per_group_incident_counts(graph: BipartiteGraph, partition: Partition) -> Dict[str, int]:
    """Number of associations incident to each group of ``partition``."""
    counts = graph.arrays().incident_counts(partition)
    return {group.group_id: int(counts[i]) for i, group in enumerate(partition.groups())}


def group_workload_l1_sensitivity(graph: BipartiteGraph, partition: Partition) -> float:
    """L1 sensitivity of the per-group *induced* count workload under group adjacency.

    The workload releases, for every group ``H`` of the partition, the number
    of associations with **both** endpoints inside ``H``.  Removing a group
    ``Gi`` zeroes its own coordinate (a change equal to its induced count) and
    leaves every other coordinate untouched, because an association counted
    for ``H != Gi`` has both endpoints in ``H`` and therefore none in ``Gi``.
    The L1 sensitivity is hence the largest induced count of any group.
    """
    if partition.num_groups() == 0:
        raise SensitivityError("partition has no groups")
    worst = int(graph.arrays().induced_counts(partition).max(initial=0))
    return float(worst) if worst else 1.0


def group_workload_l2_sensitivity(graph: BipartiteGraph, partition: Partition) -> float:
    """L2 sensitivity of the per-group induced count workload under group adjacency.

    Only one coordinate changes between group-adjacent datasets (see
    :func:`group_workload_l1_sensitivity`), so the L2 and L1 sensitivities
    coincide.
    """
    return group_workload_l1_sensitivity(graph, partition)


def group_degree_histogram_sensitivity(
    graph: BipartiteGraph, partition: Partition, side: Side, norm: str = "l1"
) -> float:
    """L1 or L2 sensitivity of one side's degree histogram under group adjacency.

    Removing a group deletes its ``m`` members on ``side`` (each leaves its
    bin) and its ``I`` incident associations, which move at most ``I``
    outside neighbours on ``side`` to another bin.  The change's negative
    part therefore has mass at most ``m + I`` and its positive part at most
    ``I``, giving an L1 bound of ``m + 2I``.  The two parts have disjoint
    support, so the L2 bound is ``sqrt(I**2 + (m + I)**2)``; ``sqrt(L1)``
    would be too small, because many nodes can leave the same bin.
    """
    arrays = graph.arrays()
    codes = arrays.partition_codes(partition, scope=Side(side).value)
    members = np.bincount(codes[codes != NO_GROUP], minlength=partition.num_groups())
    incident = arrays.incident_counts(partition)
    if norm == "l1":
        per_group = members + 2 * incident
    else:
        per_group = np.sqrt(incident**2 + (members + incident) ** 2)
    return max(1.0, float(per_group.max(initial=0)))


def cross_level_sensitivities(
    graph: BipartiteGraph, partitions: Dict[int, Partition]
) -> Dict[int, float]:
    """Global-count sensitivity per hierarchy level.

    Convenience helper used by the disclosure pipeline and the benchmarks:
    maps ``level -> group_count_sensitivity(graph, partition_at_level)``.
    """
    return {level: group_count_sensitivity(graph, partition) for level, partition in partitions.items()}


def scale_sensitivity(base: float, factor: float) -> float:
    """Multiply a sensitivity by a factor, validating the result.

    Used by the naive group-DP baseline, which scales the individual
    sensitivity by the maximum group size instead of measuring the actual
    association mass of groups.
    """
    if base <= 0 or factor <= 0:
        raise SensitivityError(f"sensitivities must be positive (base={base}, factor={factor})")
    result = base * factor
    if math.isinf(result) or math.isnan(result):
        raise SensitivityError(f"scaled sensitivity is not finite: {result}")
    return result


def association_count_sensitivity(
    graph: BipartiteGraph,
    adjacency: str = "individual",
    partition: Optional[Partition] = None,
    degree_bound: Optional[int] = None,
) -> float:
    """Dispatch helper: sensitivity of the global count under a named adjacency.

    Parameters
    ----------
    graph:
        The association graph.
    adjacency:
        ``"individual"`` (one association), ``"node"`` (one entity and its
        associations) or ``"group"`` (one group of a partition).
    partition:
        Required when ``adjacency == "group"``.
    degree_bound:
        Optional degree cap for node adjacency.
    """
    if adjacency == "individual":
        return individual_count_sensitivity()
    if adjacency == "node":
        return node_count_sensitivity(graph, degree_bound=degree_bound)
    if adjacency == "group":
        if partition is None:
            raise SensitivityError("group adjacency requires a partition")
        return group_count_sensitivity(graph, partition)
    raise SensitivityError(f"unknown adjacency {adjacency!r}")
