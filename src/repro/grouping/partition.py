"""Groups and partitions of a node universe.

The paper (Definition 3) assumes the universe ``U`` is partitioned into
non-overlapping subgroups ``G = {G1, ..., Gn}``; two datasets are group-level
adjacent if they differ by exactly one whole subgroup.  :class:`Partition`
captures such a grouping, enforces the cover/disjointness invariants, and
provides the lookups the sensitivity analysis needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidPartitionError, ValidationError

Element = Hashable


@dataclass(frozen=True)
class Group:
    """A named, immutable set of universe elements.

    Parameters
    ----------
    group_id:
        Unique identifier of the group within its partition/hierarchy.  The
        hierarchy uses path-style ids such as ``"L/0/1"`` (left side, first
        split's first child, second child of that).
    members:
        The elements (node ids) belonging to the group.
    side:
        ``"left"``, ``"right"`` or ``"mixed"`` — which side(s) of the
        bipartite graph the members come from.  Purely informational.
    level:
        The hierarchy level the group belongs to, when applicable.
    """

    group_id: str
    members: FrozenSet[Element]
    side: str = "mixed"
    level: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.group_id, str) or not self.group_id:
            raise ValidationError("group_id must be a non-empty string")
        object.__setattr__(self, "members", frozenset(self.members))
        if self.side not in ("left", "right", "mixed"):
            raise ValidationError(f"side must be 'left', 'right' or 'mixed', got {self.side!r}")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, element: Element) -> bool:
        return element in self.members

    def __iter__(self) -> Iterator[Element]:
        return iter(self.members)

    def is_singleton(self) -> bool:
        """``True`` when the group contains exactly one element."""
        return len(self.members) == 1

    def to_dict(self) -> dict:
        """JSON-serialisable representation (members sorted by string form)."""
        return {
            "group_id": self.group_id,
            "members": sorted(self.members, key=str),
            "side": self.side,
            "level": self.level,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Group":
        """Inverse of :meth:`to_dict`."""
        return cls(
            group_id=data["group_id"],
            members=frozenset(data["members"]),
            side=data.get("side", "mixed"),
            level=data.get("level"),
        )


class NodeTable:
    """An immutable, duplicate-free node sequence that partitions label.

    Every level of a specialized hierarchy shares one table, so the node
    index, the ``str`` order and the table digest (see
    :func:`repro.core.common.fingerprint_partition`) are computed once per
    hierarchy rather than once per level.
    """

    def __init__(self, nodes: Iterable[Element]):
        self.nodes: Tuple[Element, ...] = tuple(nodes)
        self._index: Optional[Dict[Element, int]] = None
        self._str_order: Optional[np.ndarray] = None
        #: Memo slot for the table digest, owned by the fingerprint code.
        self.digest: Optional[bytes] = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def index(self) -> Dict[Element, int]:
        """Mapping ``node -> position``."""
        if self._index is None:
            self._index = {node: i for i, node in enumerate(self.nodes)}
        return self._index

    def positions(self, nodes: Sequence[Element]) -> np.ndarray:
        """Table positions of ``nodes`` (``-1`` for nodes not in the table)."""
        index = self.index
        return np.fromiter((index.get(node, -1) for node in nodes), dtype=np.int64, count=len(nodes))

    @property
    def str_order(self) -> np.ndarray:
        """Table positions sorted by node ``str`` form (``repr`` breaks ties)."""
        if self._str_order is None:
            keys = [(str(node), repr(node)) for node in self.nodes]
            order = sorted(range(len(keys)), key=keys.__getitem__)
            self._str_order = np.asarray(order, dtype=np.int64)
        return self._str_order


class Partition:
    """A set of non-overlapping groups covering a universe.

    Stored as a label vector: a :class:`NodeTable`, one ``int64`` group code
    per table node (codes follow :meth:`groups` order) and per-group id,
    side and level tables.  :class:`Group` objects are built on first use
    of :meth:`groups`, :meth:`group` or :meth:`group_of` and then cached.

    The constructor validates the two partition invariants from the paper's
    setup: groups are pairwise disjoint, and their union equals the declared
    universe (when a universe is given; otherwise the universe is defined as
    the union of the groups).
    """

    def __init__(self, groups: Iterable[Group], universe: Optional[Iterable[Element]] = None):
        groups = list(groups)
        for group in groups:
            if not isinstance(group, Group):
                raise ValidationError(f"expected Group, got {type(group).__name__}")
        nodes = [element for group in groups for element in group.members]
        sizes = [len(group) for group in groups]
        self._init(
            NodeTable(nodes),
            np.repeat(np.arange(len(groups), dtype=np.int64), sizes),
            [group.group_id for group in groups],
            [group.side for group in groups],
            [group.level for group in groups],
        )
        if len(self.codes) < len(groups) or len(self.table.index) < len(nodes):
            owner: Dict[Element, str] = {}
            for code, group in enumerate(groups):
                if self.codes[group.group_id] != code:
                    raise InvalidPartitionError(f"duplicate group id {group.group_id!r}")
                for element in group.members:
                    if element in owner:
                        raise InvalidPartitionError(
                            f"element {element!r} belongs to both {owner[element]!r} and {group.group_id!r}"
                        )
                    owner[element] = group.group_id
        self._groups = groups
        if universe is not None:
            universe, covered = set(universe), set(self.table.index)
            for elements, problem in ((universe - covered, "universe element(s) not covered"),
                                      (covered - universe, "element(s) outside the universe")):
                if elements:
                    raise InvalidPartitionError(
                        f"partition has {len(elements)} {problem}, e.g. {sorted(elements, key=str)[:3]!r}"
                    )

    def _init(self, table: NodeTable, labels: np.ndarray, ids: List[str], sides: List[str], levels: list) -> None:
        self.table = table
        self.labels = labels
        self.labels.setflags(write=False)
        self.sides = sides
        self.levels = levels
        self._ids = ids
        self._codes: Optional[Dict[str, int]] = None
        self._groups: Optional[List[Group]] = None
        self._sizes: Optional[np.ndarray] = None

    @property
    def codes(self) -> Dict[str, int]:
        """Mapping ``group id -> code`` (the group's position in :meth:`groups`)."""
        if self._codes is None:
            self._codes = {gid: code for code, gid in enumerate(self._ids)}
        return self._codes

    @classmethod
    def from_labels(
        cls, table: NodeTable, labels: np.ndarray, ids: List[str], sides: List[str], levels: list
    ) -> "Partition":
        """Wrap a label vector without validation (the specializer's constructor).

        ``labels[i]`` is the code of ``table.nodes[i]``'s group; ids must be
        unique and every code in ``range(len(ids))``.
        """
        partition = cls.__new__(cls)
        partition._init(table, np.asarray(labels, dtype=np.int64), list(ids), list(sides), list(levels))
        return partition

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[Element]], level: Optional[int] = None) -> "Partition":
        """Build a partition from ``{group_id: members}``."""
        groups = [Group(group_id=gid, members=frozenset(members), level=level) for gid, members in mapping.items()]
        return cls(groups)

    @classmethod
    def singletons(cls, universe: Iterable[Element], level: Optional[int] = 0, prefix: str = "u") -> "Partition":
        """One group per element — the individual level of the hierarchy."""
        return cls(
            Group(group_id=f"{prefix}:{element}", members=frozenset([element]), level=level)
            for element in sorted(set(universe), key=str)
        )

    @classmethod
    def trivial(cls, universe: Iterable[Element], level: Optional[int] = None, group_id: str = "root") -> "Partition":
        """A single group containing the whole universe — the top level."""
        return cls([Group(group_id=group_id, members=frozenset(universe), level=level)])

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _group_list(self) -> List[Group]:
        if self._groups is None:
            order = np.argsort(self.labels, kind="stable")
            bounds = np.cumsum(self.group_sizes())[:-1]
            nodes = self.table.nodes
            self._groups = [
                Group(gid, frozenset(nodes[i] for i in chunk.tolist()), side=side, level=level)
                for gid, side, level, chunk in zip(
                    self._ids, self.sides, self.levels, np.split(order, bounds)
                )
            ]
        return self._groups

    def groups(self) -> List[Group]:
        """All groups, in insertion order."""
        return list(self._group_list())

    def group_ids(self) -> List[str]:
        """All group ids, in insertion order."""
        return list(self._ids)

    def group(self, group_id: str) -> Group:
        """Return the group with the given id."""
        return self._group_list()[self.codes[group_id]]

    def group_of(self, element: Element) -> Group:
        """Return the group containing ``element``."""
        return self._group_list()[self.labels[self.table.index[element]]]

    def contains_element(self, element: Element) -> bool:
        """``True`` when some group contains ``element``."""
        return element in self.table.index

    def universe(self) -> FrozenSet[Element]:
        """All covered elements."""
        return frozenset(self.table.nodes)

    def group_sizes(self) -> np.ndarray:
        """Group sizes in :meth:`groups` order."""
        if self._sizes is None:
            self._sizes = np.bincount(self.labels, minlength=len(self._ids))
        return self._sizes

    def sizes(self) -> Dict[str, int]:
        """Mapping ``group_id -> group size``."""
        return dict(zip(self._ids, self.group_sizes().tolist()))

    def max_group_size(self) -> int:
        """The size of the largest group (0 for an empty partition)."""
        return int(self.group_sizes().max()) if self._ids else 0

    def num_groups(self) -> int:
        """Number of groups."""
        return len(self._ids)

    def num_elements(self) -> int:
        """Number of covered elements."""
        return len(self.table)

    def __len__(self) -> int:
        return self.num_groups()

    def __iter__(self) -> Iterator[Group]:
        return iter(self._group_list())

    def __contains__(self, group_id: str) -> bool:
        return group_id in self.codes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partition(groups={self.num_groups()}, elements={self.num_elements()})"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"groups": [group.to_dict() for group in self._group_list()]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Partition":
        """Inverse of :meth:`to_dict`."""
        return cls([Group.from_dict(g) for g in data["groups"]])

    # ------------------------------------------------------------------
    # Derived partitions
    # ------------------------------------------------------------------
    def restricted_to(self, elements: Iterable[Element]) -> "Partition":
        """Intersect every group with ``elements`` and drop empty groups."""
        keep = set(elements)
        groups = []
        for group in self._group_list():
            members = group.members & keep
            if members:
                groups.append(Group(group.group_id, members, side=group.side, level=group.level))
        return Partition(groups)

    def merged_with(self, other: "Partition") -> "Partition":
        """Union of two partitions over disjoint universes."""
        overlap = self.universe() & other.universe()
        if overlap:
            raise InvalidPartitionError(
                f"cannot merge partitions with {len(overlap)} overlapping element(s)"
            )
        return Partition(self.groups() + other.groups())
