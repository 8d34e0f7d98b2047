"""Safe-grouping release (syntactic, non-DP baseline).

Cormode et al. (VLDB 2008) anonymise bipartite association graphs by grouping
the nodes of each side into *safe groups* of at least ``k`` members such that
no two nodes of a group share an association, and then publishing the
group-to-group association counts.  This simplified reimplementation keeps
the two defining ingredients — minimum group size and the safety condition —
and publishes the exact (noise-free) group-pair counts, which makes it a
useful syntactic point of comparison: zero noise error, but only a
syntactic (k-anonymity-style) protection rather than a differential-privacy
guarantee.

:meth:`SafeGroupingDiscloser.disclose` groups the two sides (each side
draws its insertion order from its own derived stream, so neither side's
grouping depends on the other's), tabulates the group-pair counts and
packages the release.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.exceptions import GroupingError
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.partition import Group, Partition
from repro.core.common import DiscloseSeedStream
from repro.utils.rng import RandomState, derive_seedseq
from repro.utils.validation import check_positive_int

Node = Hashable


@dataclass
class SafeGroupingRelease:
    """The artefact published by the safe-grouping baseline."""

    dataset_name: str
    left_partition: Partition
    right_partition: Partition
    group_pair_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    k: int = 3

    def total_associations(self) -> int:
        """Total association count recoverable from the published table (exact)."""
        return sum(self.group_pair_counts.values())

    def count_between(self, left_group_id: str, right_group_id: str) -> int:
        """Published count between two groups (0 when absent)."""
        return self.group_pair_counts.get((left_group_id, right_group_id), 0)

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "dataset_name": self.dataset_name,
            "k": self.k,
            "left_partition": self.left_partition.to_dict(),
            "right_partition": self.right_partition.to_dict(),
            "group_pair_counts": [
                {"left": left, "right": right, "count": count}
                for (left, right), count in sorted(self.group_pair_counts.items())
            ],
        }


def _greedy_safe_groups(
    graph: BipartiteGraph,
    side: Side,
    k: int,
    max_attempts: int,
    seed: Optional[np.random.SeedSequence],
) -> List[List[Node]]:
    """Greedy assignment of one side's nodes into safety-respecting groups.

    Module-level (process-picklable) task function; the insertion order comes
    from the side's own derived stream, so the result is independent of
    whether the other side is grouped before, after or concurrently.
    """
    rng = np.random.default_rng(seed)
    nodes = list(graph.left_nodes() if side is Side.LEFT else graph.right_nodes())
    if not nodes:
        return []
    order = rng.permutation(len(nodes))
    nodes = [nodes[i] for i in order]
    num_groups = max(1, len(nodes) // k)
    groups: List[List[Node]] = [[] for _ in range(num_groups)]
    group_neighbourhoods: List[set] = [set() for _ in range(num_groups)]
    for node in nodes:
        neighbours = graph.neighbors(node)
        placed = False
        # Prefer the smallest group whose existing members share no neighbour.
        candidate_order = sorted(range(num_groups), key=lambda g: len(groups[g]))
        for attempt, g in enumerate(candidate_order):
            if attempt >= max_attempts:
                break
            if group_neighbourhoods[g].isdisjoint(neighbours):
                groups[g].append(node)
                group_neighbourhoods[g].update(neighbours)
                placed = True
                break
        if not placed:
            g = candidate_order[0]
            groups[g].append(node)
            group_neighbourhoods[g].update(neighbours)
    return [group for group in groups if group]


def _group_side(
    side: Side,
    graph: BipartiteGraph,
    k: int,
    max_attempts: int,
    seed: Optional[np.random.SeedSequence],
) -> Partition:
    """Group one side and wrap it into a partition."""
    prefix = "SGL" if side is Side.LEFT else "SGR"
    side_name = "left" if side is Side.LEFT else "right"
    side_seed = derive_seedseq(seed, f"safe-{side_name}") if seed is not None else None
    groups = _greedy_safe_groups(graph, side, k, max_attempts, side_seed)
    return Partition(
        [
            Group(group_id=f"{prefix}{i}", members=frozenset(members), side=side_name)
            for i, members in enumerate(groups)
        ]
    )


class SafeGroupingDiscloser:
    """Greedy safe-grouping of both sides followed by exact count publication.

    Parameters
    ----------
    k:
        Minimum group size on each side.
    max_attempts:
        How many greedy passes to try before giving up on the safety
        condition for a node (it is then placed in the smallest group,
        sacrificing safety but never failing — matching the practical
        variants of the original algorithm).
    rng:
        Seed / generator driving the greedy insertion orders (each side
        derives its own stream).
    """

    def __init__(
        self,
        k: int = 3,
        max_attempts: int = 50,
        rng: RandomState = None,
    ):
        self.k = check_positive_int(k, "k")
        self.max_attempts = check_positive_int(max_attempts, "max_attempts")
        self._seeds = DiscloseSeedStream(rng, "safe-grouping")

    def disclose(self, graph: BipartiteGraph) -> SafeGroupingRelease:
        """Group both sides and publish the exact group-pair counts."""
        if graph.num_nodes() == 0:
            raise GroupingError("cannot safe-group an empty graph")
        seed = self._seeds.next()
        left, right = (
            _group_side(side, graph, self.k, self.max_attempts, seed)
            for side in (Side.LEFT, Side.RIGHT)
        )
        # One bincount over the compiled edge arrays.
        matrix = graph.arrays().cross_group_matrix(left, right)
        left_ids = left.group_ids()
        right_ids = right.group_ids()
        nonzero = matrix.nonzero()
        return SafeGroupingRelease(
            dataset_name=graph.name,
            left_partition=left,
            right_partition=right,
            group_pair_counts={
                (left_ids[i], right_ids[j]): int(value)
                for i, j, value in zip(*nonzero, matrix[nonzero])
            },
            k=self.k,
        )

    @staticmethod
    def safety_violations(graph: BipartiteGraph, release: SafeGroupingRelease) -> int:
        """Count node pairs within a group that share a neighbour (0 = fully safe)."""
        violations = 0
        for partition in (release.left_partition, release.right_partition):
            for group in partition.groups():
                members = [m for m in group.members if graph.has_node(m)]
                neighbour_sets = [graph.neighbors(m) for m in members]
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        if neighbour_sets[i] & neighbour_sets[j]:
                            violations += 1
        return violations
