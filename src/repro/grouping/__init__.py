"""Universe partitions, group hierarchies and private specialization.

Phase 1 of the paper's disclosure pipeline recursively partitions the node
universe of a bipartite association graph into a multi-level hierarchy of
groups.  This package provides:

* :class:`~repro.grouping.partition.Group` and
  :class:`~repro.grouping.partition.Partition` — the static objects the
  group-adjacency relation and the sensitivity analysis are defined over;
* :class:`~repro.grouping.hierarchy.GroupHierarchy` — the multi-level
  structure (level ``L`` = whole dataset, level ``0`` = individuals);
* score functions (:mod:`repro.grouping.scores`) and splitters
  (:mod:`repro.grouping.splitters`) used to propose and choose binary splits;
* :class:`~repro.grouping.specialization.Specializer` — the
  Exponential-Mechanism-driven recursive splitting procedure, with
  deterministic and random baselines for the ablation study.
"""

from repro.grouping.partition import Group, NodeTable, Partition
from repro.grouping.hierarchy import GroupHierarchy, LevelStatistics
from repro.grouping.attribute_grouping import (
    hierarchy_from_attribute_levels,
    partition_by_attribute,
)
from repro.grouping.scores import (
    BalancedAssociationScore,
    BalanceScore,
    EdgeUniformityScore,
    SplitScore,
)
from repro.grouping.splitters import (
    DegreeOrderSplitter,
    HashOrderSplitter,
    RandomOrderSplitter,
    Splitter,
)
from repro.grouping.specialization import (
    DeterministicSpecializer,
    RandomSpecializer,
    Specializer,
    SpecializationConfig,
    SpecializationResult,
)

__all__ = [
    "Group",
    "Partition",
    "NodeTable",
    "partition_by_attribute",
    "hierarchy_from_attribute_levels",
    "GroupHierarchy",
    "LevelStatistics",
    "SplitScore",
    "BalanceScore",
    "BalancedAssociationScore",
    "EdgeUniformityScore",
    "Splitter",
    "DegreeOrderSplitter",
    "HashOrderSplitter",
    "RandomOrderSplitter",
    "Specializer",
    "DeterministicSpecializer",
    "RandomSpecializer",
    "SpecializationConfig",
    "SpecializationResult",
]
