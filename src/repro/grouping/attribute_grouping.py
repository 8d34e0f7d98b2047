"""Attribute-driven partitions and hierarchies.

The paper's motivating examples define groups *semantically* — "the buyers in
a given neighbourhood represented by a zipcode" — rather than through the
private specialization procedure.  This module builds
:class:`~repro.grouping.partition.Partition` and
:class:`~repro.grouping.hierarchy.GroupHierarchy` objects directly from node
attributes, so a publisher can protect exactly those semantic groups:

* :func:`partition_by_attribute` — one group per attribute value on one side
  of the graph (the other side can be kept as a single reference group or
  partitioned by its own attribute);
* :func:`hierarchy_from_attribute_levels` — a multi-level hierarchy from a
  list of progressively coarser attributes (e.g. ``["zipcode", "city",
  "state"]``), with the individual level below and the whole dataset above.

Attribute-defined groupings cost no privacy budget (the attribute values are
taken to be public metadata, as zipcodes are); the sensitive quantity remains
the association structure, which is still released only through calibrated
noise.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence

from repro.exceptions import GroupingError
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.partition import Group, Partition

Node = Hashable

#: Attribute value assigned to nodes that lack the attribute.
MISSING_VALUE = "__missing__"


def _attribute_value(graph: BipartiteGraph, node: Node, attribute: str) -> str:
    value = graph.node_attributes(node).get(attribute, MISSING_VALUE)
    return str(value)


def partition_by_attribute(
    graph: BipartiteGraph,
    attribute: str,
    side: Side = Side.LEFT,
    include_other_side: bool = True,
    other_side_group_id: str = "other-side",
    level: Optional[int] = None,
) -> Partition:
    """One group per value of ``attribute`` among the nodes of ``side``.

    Parameters
    ----------
    graph:
        The association graph.
    attribute:
        Node-attribute name (e.g. ``"zipcode"``); nodes missing it are
        collected in a ``__missing__`` group.
    side:
        Which side carries the attribute.
    include_other_side:
        When true (default) the opposite side's nodes are added as one extra
        group, so the partition covers the whole node universe and can be used
        directly as a protection partition for the global count query.
    other_side_group_id:
        Group id of that extra group.
    level:
        Optional hierarchy level recorded on the groups.
    """
    side = Side(side)
    nodes = graph.left_nodes() if side is Side.LEFT else graph.right_nodes()
    by_value: Dict[str, set] = {}
    for node in nodes:
        by_value.setdefault(_attribute_value(graph, node, attribute), set()).add(node)
    if not by_value:
        raise GroupingError(f"graph has no {side.value}-side nodes to partition")
    groups = [
        Group(f"{attribute}:{value}", frozenset(members), side=side.value, level=level)
        for value, members in sorted(by_value.items())
    ]
    other_members = frozenset(graph.right_nodes() if side is Side.LEFT else graph.left_nodes())
    if include_other_side and other_members:
        groups.append(Group(other_side_group_id, other_members, side=side.other().value, level=level))
    return Partition(groups)


def hierarchy_from_attribute_levels(
    graph: BipartiteGraph,
    attributes: Sequence[str],
    side: Side = Side.LEFT,
    include_individual_level: bool = True,
) -> GroupHierarchy:
    """Build a hierarchy from progressively coarser attributes.

    ``attributes[0]`` defines the finest grouping level (level 1),
    ``attributes[-1]`` the coarsest attribute level; the whole dataset sits
    one level above that, and level 0 (optional) holds the individuals.

    The attribute sequence must be *hierarchically consistent*: every value of
    ``attributes[k]`` must map to exactly one value of ``attributes[k+1]``
    (e.g. each zipcode lies in one city).  A :class:`GroupingError` is raised
    otherwise, because inconsistent levels would not form a tree.

    Parameters
    ----------
    graph:
        The association graph.
    attributes:
        Attribute names, finest first (e.g. ``["zipcode", "city", "state"]``).
    side:
        The side carrying the attributes; the opposite side is kept as a
        single reference group at every attribute level.
    include_individual_level:
        Whether to materialise the singleton level 0.
    """
    if not attributes:
        raise GroupingError("at least one attribute is required")
    side = Side(side)

    levels: Dict[int, Partition] = {}
    parents: Dict[str, str] = {}

    top_level = len(attributes) + 1
    universe = list(graph.nodes())
    levels[top_level] = Partition.trivial(universe, level=top_level, group_id="root")

    # Attribute levels: finest attribute is level 1, coarsest is len(attributes).
    for index, attribute in enumerate(attributes):
        level = index + 1
        levels[level] = partition_by_attribute(
            graph,
            attribute,
            side=side,
            include_other_side=True,
            other_side_group_id=f"other-side@{level}",
            level=level,
        )

    # Consistency + parent links between consecutive attribute levels.
    side_nodes = list(graph.left_nodes() if side is Side.LEFT else graph.right_nodes())
    for index in range(len(attributes) - 1):
        fine_attr, coarse_attr = attributes[index], attributes[index + 1]
        fine_to_coarse: Dict[str, str] = {}
        for node in side_nodes:
            fine_value = _attribute_value(graph, node, fine_attr)
            coarse_value = _attribute_value(graph, node, coarse_attr)
            previous = fine_to_coarse.setdefault(fine_value, coarse_value)
            if previous != coarse_value:
                raise GroupingError(
                    f"attribute {fine_attr!r} value {fine_value!r} maps to both "
                    f"{previous!r} and {coarse_value!r} of {coarse_attr!r}; levels must nest"
                )
        for fine_value, coarse_value in fine_to_coarse.items():
            parents[f"{fine_attr}:{fine_value}"] = f"{coarse_attr}:{coarse_value}"
        parents[f"other-side@{index + 1}"] = f"other-side@{index + 2}"

    # Coarsest attribute level -> root.
    for group in levels[len(attributes)].groups():
        parents[group.group_id] = "root"

    # Individual level.
    if include_individual_level:
        singletons = [(group, member) for group in levels[1] for member in sorted(group.members, key=str)]
        levels[0] = Partition(Group(f"u:{member}", [member], side=group.side, level=0) for group, member in singletons)
        parents.update((f"u:{member}", group.group_id) for group, member in singletons)

    return GroupHierarchy(levels, parents=parents, validate=True)
