"""Adjacency relations: what "neighbouring datasets" means.

Differential privacy is always stated relative to an adjacency relation over
datasets.  The paper works with two:

* **individual adjacency** (Definition 1/2) — datasets differing in one
  record; and
* **group-level adjacency** (Definition 3/4) — datasets differing in one
  whole group ``Gi`` of a fixed partition of the universe.

For bipartite association graphs a "record" can be read as an association
(edge) or as an entity (node together with all its associations); both graph
variants are provided because the two lead to different sensitivities for the
same query, and the baselines use the edge variant.
"""

from __future__ import annotations

import abc
from typing import Hashable, Optional

from repro.exceptions import ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.partition import Partition
from repro.privacy.sensitivity import group_count_sensitivity, node_count_sensitivity

Element = Hashable


class AdjacencyRelation(abc.ABC):
    """Base class for adjacency relations.

    An adjacency relation answers two questions:

    * :meth:`unit` — a human-readable name of the protected unit;
    * :meth:`count_query_sensitivity` — how much the global
      association-count query can change between two adjacent datasets
      (the quantity additive-noise mechanisms must be calibrated to).
    """

    @abc.abstractmethod
    def unit(self) -> str:
        """Name of the protected unit (e.g. ``"association"``, ``"group"``)."""

    @abc.abstractmethod
    def count_query_sensitivity(self, graph: BipartiteGraph) -> float:
        """Worst-case change of the association count between adjacent datasets."""

    def describe(self) -> str:
        """One-line description used in guarantee certificates."""
        return f"{type(self).__name__}(unit={self.unit()!r})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class IndividualAdjacency(AdjacencyRelation):
    """Record-level adjacency: datasets differ in a single association.

    This is the classical Definition 1 applied to association data where each
    record is one (left, right) association.  The count query changes by at
    most 1 between adjacent datasets regardless of the graph.
    """

    def unit(self) -> str:
        return "association"

    def count_query_sensitivity(self, graph: BipartiteGraph) -> float:
        return 1.0


class EdgeAdjacency(IndividualAdjacency):
    """Alias of :class:`IndividualAdjacency` using graph terminology."""

    def unit(self) -> str:
        return "edge"


class NodeAdjacency(AdjacencyRelation):
    """Entity-level adjacency: datasets differ in one node and all its associations.

    The count query can change by the degree of the node, so its sensitivity
    is the maximum degree (optionally clamped by ``degree_bound`` when the
    publisher enforces a degree cap before release).
    """

    def __init__(self, degree_bound: Optional[int] = None):
        if degree_bound is not None and degree_bound <= 0:
            raise ValidationError(f"degree_bound must be positive, got {degree_bound}")
        self.degree_bound = degree_bound

    def unit(self) -> str:
        return "node"

    def count_query_sensitivity(self, graph: BipartiteGraph) -> float:
        return node_count_sensitivity(graph, degree_bound=self.degree_bound)


class GroupAdjacency(AdjacencyRelation):
    """Group-level adjacency (paper Definition 3): datasets differ in one group.

    Removing a group removes every node in the group and every association
    incident to those nodes, so the count query can change by the largest
    number of associations any single group touches.

    Parameters
    ----------
    partition:
        The fixed partition ``G = {G1, ..., Gn}`` of the node universe that
        group privacy is defined over (one level of the hierarchy).
    """

    def __init__(self, partition: Partition):
        if not isinstance(partition, Partition):
            raise ValidationError(f"partition must be a Partition, got {type(partition).__name__}")
        self.partition = partition

    def unit(self) -> str:
        return "group"

    def count_query_sensitivity(self, graph: BipartiteGraph) -> float:
        return group_count_sensitivity(graph, self.partition)

    def max_group_size(self) -> int:
        """Largest group size in the underlying partition."""
        return self.partition.max_group_size()

    def describe(self) -> str:
        return (
            f"GroupAdjacency(groups={self.partition.num_groups()}, "
            f"max_group_size={self.partition.max_group_size()})"
        )
