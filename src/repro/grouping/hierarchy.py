"""Multi-level group hierarchies.

The paper forms ``L`` group levels by repeated specialization: the top level
(``L``) is the entire dataset (one group holding every node of the bipartite
graph), each group at level ``i`` is split into (up to) four subgroups at
level ``i - 1`` — two from the left node set and two from the right node set
— and level ``0`` is the individual level where every group is a single node.

:class:`GroupHierarchy` stores one :class:`~repro.grouping.partition.Partition`
per level together with the parent/child relation and validates the
structural invariants:

* every level is a partition of the same universe;
* the children of a group partition exactly that group's members;
* the bottom level consists of singletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import HierarchyError
from repro.grouping.partition import Group, Partition

Element = Hashable


@dataclass(frozen=True)
class LevelStatistics:
    """Size statistics of one hierarchy level, used in reports and benches."""

    level: int
    num_groups: int
    max_group_size: int
    min_group_size: int
    mean_group_size: float

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "level": self.level,
            "num_groups": self.num_groups,
            "max_group_size": self.max_group_size,
            "min_group_size": self.min_group_size,
            "mean_group_size": self.mean_group_size,
        }


def _labels_above(child: Partition, parent: Partition) -> np.ndarray:
    """``parent``'s group code of each of ``child``'s table nodes (-1 when absent)."""
    if child.table is parent.table:
        return parent.labels
    positions = parent.table.positions(child.table.nodes)
    return np.where(positions >= 0, parent.labels[np.maximum(positions, 0)], -1)


class GroupHierarchy:
    """An ordered stack of partitions from coarse (top) to fine (bottom).

    Parameters
    ----------
    levels:
        Mapping ``level index -> Partition``.  The largest index is the top
        (coarsest) level; index 0, when present, is the individual level.
    parents:
        Mapping ``child group id -> parent group id`` for consecutive levels.
        When omitted (and no ``parent_codes`` are given) it is inferred by
        member containment.
    validate:
        Run the structural invariant checks (default ``True``).
    parent_codes:
        Mapping ``level -> int64 array`` holding each group's position in
        the next level up's :meth:`~repro.grouping.partition.Partition.groups`
        (every level but the top): the same relation as ``parents`` in the
        form a builder already holds.  The id mapping is derived from it on
        first use.
    """

    def __init__(
        self,
        levels: Mapping[int, Partition],
        parents: Optional[Mapping[str, str]] = None,
        validate: bool = True,
        parent_codes: Optional[Mapping[int, np.ndarray]] = None,
    ):
        if not levels:
            raise HierarchyError("a hierarchy needs at least one level")
        self._levels: Dict[int, Partition] = dict(sorted(levels.items()))
        self._parent_ids: Optional[Dict[str, str]] = None
        self._codes: Optional[Dict[int, np.ndarray]] = None
        self._children: Optional[Dict[str, List[str]]] = None
        if parent_codes is not None:
            self._codes = {level: np.asarray(codes, dtype=np.int64) for level, codes in parent_codes.items()}
        elif parents:
            self._parent_ids = dict(parents)
        else:
            self._codes = self._infer_parent_codes()
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _infer_parent_codes(self) -> Dict[int, np.ndarray]:
        """Infer the parent relation by member containment between consecutive levels."""
        inferred = {}
        indices = self.level_indices()
        for lower, upper in zip(indices, indices[1:]):
            child, parent = self._levels[lower], self._levels[upper]
            above = _labels_above(child, parent)
            missing = np.flatnonzero(above < 0)
            if missing.size:
                raise HierarchyError(
                    f"element {child.table.nodes[missing[0]]!r} of group "
                    f"{child.group_ids()[child.labels[missing[0]]]!r} is missing from level {upper}"
                )
            # Any member names its group's parent; empty groups keep none.
            codes = np.full(child.num_groups(), -1, dtype=np.int64)
            codes[child.labels] = above
            inferred[lower] = codes
        return inferred

    @property
    def _parents(self) -> Dict[str, str]:
        """Mapping ``child group id -> parent group id``, built from codes on first use."""
        if self._parent_ids is None:
            self._parent_ids = {}
            indices = self.level_indices()
            for lower, upper in zip(indices, indices[1:]):
                parent_ids = self._levels[upper].group_ids()
                codes = self._codes.get(lower, np.zeros(0, dtype=np.int64)).tolist()
                for group_id, code in zip(self._levels[lower].group_ids(), codes):
                    if 0 <= code < len(parent_ids):
                        self._parent_ids[group_id] = parent_ids[code]
        return self._parent_ids

    def _recorded_codes(self, lower: int, upper: int) -> np.ndarray:
        """Each group at ``lower``'s recorded parent code at ``upper`` (-1 for none)."""
        child, parent = self._levels[lower], self._levels[upper]
        if self._codes is None:
            expected = [parent.codes.get(self._parents.get(group_id), -1) for group_id in child.group_ids()]
            return np.asarray(expected, dtype=np.int64)
        codes = self._codes.get(lower)
        if codes is None or len(codes) != child.num_groups():
            raise HierarchyError(f"level {lower} does not record one parent code per group")
        return np.where((codes >= 0) & (codes < parent.num_groups()), codes, -1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def level_indices(self) -> List[int]:
        """Sorted level indices, ascending (finest first)."""
        return sorted(self._levels)

    @property
    def top_level(self) -> int:
        """Index of the coarsest level."""
        return self.level_indices()[-1]

    @property
    def bottom_level(self) -> int:
        """Index of the finest level."""
        return self.level_indices()[0]

    def num_levels(self) -> int:
        """Number of stored levels."""
        return len(self._levels)

    def partition_at(self, level: int) -> Partition:
        """The partition at ``level``."""
        if level not in self._levels:
            raise HierarchyError(f"level {level} not in hierarchy (has {self.level_indices()})")
        return self._levels[level]

    def has_level(self, level: int) -> bool:
        """``True`` when ``level`` exists in the hierarchy."""
        return level in self._levels

    def groups_at(self, level: int) -> List[Group]:
        """All groups at ``level``."""
        return self.partition_at(level).groups()

    def universe(self) -> FrozenSet[Element]:
        """The element universe (taken from the top level)."""
        return self.partition_at(self.top_level).universe()

    def parent_of(self, group_id: str) -> Optional[str]:
        """The parent group id, or ``None`` for top-level groups."""
        return self._parents.get(group_id)

    def children_of(self, group_id: str) -> List[str]:
        """The child group ids (empty for bottom-level groups)."""
        if self._children is None:
            self._children = {}
            for child, parent in self._parents.items():
                self._children.setdefault(parent, []).append(child)
        return list(self._children.get(group_id, []))

    def iter_levels(self) -> Iterator[Tuple[int, Partition]]:
        """Iterate ``(level, partition)`` pairs from fine to coarse."""
        for level in self.level_indices():
            yield level, self._levels[level]

    def level_statistics(self) -> List[LevelStatistics]:
        """Per-level size statistics, fine to coarse."""
        stats = []
        for level, partition in self.iter_levels():
            sizes = partition.group_sizes()
            stats.append(
                LevelStatistics(
                    level=level,
                    num_groups=len(sizes),
                    max_group_size=int(sizes.max()) if sizes.size else 0,
                    min_group_size=int(sizes.min()) if sizes.size else 0,
                    mean_group_size=(int(sizes.sum()) / len(sizes)) if sizes.size else 0.0,
                )
            )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupHierarchy(levels={self.level_indices()}, "
            f"universe={len(self.universe())} elements)"
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the hierarchy invariants; raise :class:`HierarchyError` on violation.

        Every level must cover the top level's universe, and every child
        group must name a parent one level up that contains it.  Together
        these imply that a parent's children cover exactly its members.
        """
        indices = self.level_indices()
        top = self._levels[indices[-1]]
        for level in indices:
            partition = self._levels[level]
            if partition.table is not top.table and (
                len(partition.table) != len(top.table)
                or (top.table.positions(partition.table.nodes) < 0).any()
            ):
                raise HierarchyError(
                    f"level {level} covers {partition.num_elements()} elements but the top level "
                    f"covers {top.num_elements()}"
                )
        for lower, upper in zip(indices, indices[1:]):
            child, parent = self._levels[lower], self._levels[upper]
            expected = self._recorded_codes(lower, upper)
            missing = np.flatnonzero(expected < 0)
            if missing.size:
                group_id = child.group_ids()[missing[0]]
                raise HierarchyError(
                    f"group {group_id!r} at level {lower} has no parent at level {upper} "
                    f"(recorded parent: {self._parents.get(group_id)!r})"
                )
            outside = np.flatnonzero(expected[child.labels] != _labels_above(child, parent))
            if outside.size:
                group_id = child.group_ids()[child.labels[outside[0]]]
                raise HierarchyError(
                    f"group {group_id!r} is not contained in its parent {self._parents[group_id]!r}"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "levels": {str(level): partition.to_dict() for level, partition in self._levels.items()},
            "parents": dict(self._parents),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GroupHierarchy":
        """Inverse of :meth:`to_dict`."""
        levels = {int(level): Partition.from_dict(p) for level, p in data["levels"].items()}
        return cls(levels, parents=data.get("parents") or None)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def two_level(cls, universe: Iterable[Element], top_level: int = 1) -> "GroupHierarchy":
        """The smallest useful hierarchy: one root group over singletons."""
        universe = list(universe)
        bottom = Partition.singletons(universe, level=0)
        top = Partition.trivial(universe, level=top_level)
        return cls({0: bottom, top_level: top})
