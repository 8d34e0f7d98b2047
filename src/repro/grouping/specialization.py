"""Phase 1 of the paper: multi-level specialization of a bipartite graph.

The :class:`Specializer` recursively partitions the node universe of a
bipartite association graph into a :class:`~repro.grouping.hierarchy.GroupHierarchy`
with ``num_levels + 1`` levels:

* level ``num_levels`` (the top) is a single group containing every node;
* each group at level ``i`` is split into up to four subgroups at level
  ``i - 1`` — by default two subgroups drawn from the group's left-side nodes
  and two from its right-side nodes, exactly as described in the paper's
  evaluation setup;
* level ``0`` (optional) is the individual level: one singleton group per
  node.

Every binary split is chosen by the **Exponential Mechanism** over a small
set of candidate splits produced by a :class:`~repro.grouping.splitters.Splitter`
and scored by a :class:`~repro.grouping.scores.SplitScore`, so the published
grouping structure itself satisfies differential privacy.  Two non-private
specializers (:class:`DeterministicSpecializer`, :class:`RandomSpecializer`)
are provided for the ablation study in DESIGN.md (experiment E4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import SpecializationError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.partition import NodeTable, Partition
from repro.grouping.scores import BalancedAssociationScore, SplitScore
from repro.grouping.splitters import HashOrderSplitter, RandomOrderSplitter, Splitter, ranks_of, split_sides
from repro.mechanisms.base import PrivacyCost
from repro.mechanisms.exponential import ExponentialMechanism
from repro.utils.rng import RandomState, derive_rng
from repro.utils.validation import check_positive, check_positive_int

#: Side codes of a group, and their names.
LEFT, RIGHT, MIXED = 0, 1, 2
SIDE_NAMES = ("left", "right", "mixed")


@dataclass(frozen=True)
class SpecializationConfig:
    """Configuration of the specialization (phase-1) procedure.

    Parameters
    ----------
    num_levels:
        Index of the top level.  The resulting hierarchy has levels
        ``num_levels, num_levels - 1, ..., 1`` and, when
        ``include_individual_level`` is true, level ``0`` as well.  The paper
        uses ``num_levels = 9``.
    left_fanout, right_fanout:
        How many subgroups the left-side and right-side members of a mixed
        group are split into at each level transition (paper: 2 and 2, i.e.
        four subgroups per group).
    single_side_fanout:
        How many subgroups a single-sided group is split into (paper's
        narrative of "4 subgroups per group" is preserved by the default 4).
    epsilon:
        Total privacy budget consumed by the specialization phase (spread
        uniformly over the sequential Exponential-Mechanism rounds).
    min_group_size:
        Groups at or below this size are carried down unchanged instead of
        being split further.
    include_individual_level:
        Whether to materialise level 0 (one singleton group per node).
    cut_fractions:
        Candidate cut positions handed to the splitter.
    """

    num_levels: int = 9
    left_fanout: int = 2
    right_fanout: int = 2
    single_side_fanout: int = 4
    epsilon: float = 1.0
    min_group_size: int = 2
    include_individual_level: bool = True
    cut_fractions: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)

    def __post_init__(self):
        check_positive_int(self.num_levels, "num_levels")
        check_positive_int(self.left_fanout, "left_fanout")
        check_positive_int(self.right_fanout, "right_fanout")
        check_positive_int(self.single_side_fanout, "single_side_fanout")
        check_positive(self.epsilon, "epsilon")
        check_positive_int(self.min_group_size, "min_group_size")
        if self.num_levels < 1:
            raise ValidationError("num_levels must be at least 1")

    def num_transitions(self) -> int:
        """Number of level transitions produced by splitting (top .. 1)."""
        return self.num_levels - 1

    def rounds_per_transition(self) -> int:
        """Sequential Exponential-Mechanism rounds per level transition.

        The specializer cuts each side in at most this many rounds, and a
        round puts each node in at most one selection (it cuts only parts
        that existed when it began, and those are disjoint).  Selections
        over disjoint node sets compose in parallel, so a node's budget per
        transition is this many selections: ``ceil(log2(max fanout))``
        rounds of bisection reach the largest fanout.
        """
        max_fanout = max(self.left_fanout, self.right_fanout, self.single_side_fanout)
        return max(1, math.ceil(math.log2(max_fanout)))

    def total_rounds(self) -> int:
        """Total sequential Exponential-Mechanism rounds across the hierarchy."""
        return max(1, self.num_transitions() * self.rounds_per_transition())

    def epsilon_per_round(self) -> float:
        """Budget available to each sequential round."""
        return self.epsilon / self.total_rounds()

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "num_levels": self.num_levels,
            "left_fanout": self.left_fanout,
            "right_fanout": self.right_fanout,
            "single_side_fanout": self.single_side_fanout,
            "epsilon": self.epsilon,
            "min_group_size": self.min_group_size,
            "include_individual_level": self.include_individual_level,
            "cut_fractions": list(self.cut_fractions),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpecializationConfig":
        """Rebuild from :meth:`to_dict` output (unknown keys are ignored,
        missing keys fall back to the defaults — old stored configs load)."""
        kwargs = {
            key: data[key]
            for key in (
                "num_levels",
                "left_fanout",
                "right_fanout",
                "single_side_fanout",
                "epsilon",
                "min_group_size",
                "include_individual_level",
            )
            if key in data
        }
        if data.get("cut_fractions") is not None:
            kwargs["cut_fractions"] = tuple(data["cut_fractions"])
        return cls(**kwargs)


@dataclass
class SpecializationResult:
    """Output of a specialization run."""

    hierarchy: GroupHierarchy
    privacy_cost: PrivacyCost
    num_selections: int
    config: SpecializationConfig
    method: str = "exponential"

    def to_dict(self) -> dict:
        """JSON-serialisable representation (hierarchy included)."""
        return {
            "method": self.method,
            "privacy_cost": self.privacy_cost.to_dict(),
            "num_selections": self.num_selections,
            "config": self.config.to_dict(),
            "hierarchy": self.hierarchy.to_dict(),
        }


class Specializer:
    """Exponential-Mechanism-driven multi-level specialization.

    Parameters
    ----------
    config:
        A :class:`SpecializationConfig` (defaults reproduce the paper setup).
    score:
        The split-quality function (default
        :class:`~repro.grouping.scores.BalancedAssociationScore`).
    splitter:
        Candidate generator (default
        :class:`~repro.grouping.splitters.HashOrderSplitter`).
    rng:
        Seed, generator, or ``None``.
    """

    method_name = "exponential"

    def __init__(
        self,
        config: Optional[SpecializationConfig] = None,
        score: Optional[SplitScore] = None,
        splitter: Optional[Splitter] = None,
        rng: RandomState = None,
    ):
        self.config = config if config is not None else SpecializationConfig()
        self.score = score if score is not None else BalancedAssociationScore()
        self.splitter = (
            splitter
            if splitter is not None
            else HashOrderSplitter(cut_fractions=self.config.cut_fractions)
        )
        self._rng = derive_rng(rng, "specialization")
        self._selections = 0

    # ------------------------------------------------------------------
    # Split selection (overridden by the non-private baselines)
    # ------------------------------------------------------------------
    def _select(self, lo: np.ndarray, hi: np.ndarray, cuts: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Pick one cut per row with the Exponential Mechanism, one
        ``random()`` draw each; see
        :func:`~repro.grouping.splitters.split_sides` for the arguments."""
        if self._prefix is None or self.splitter.reorders:
            self._prefix = np.concatenate(([0], np.cumsum(self._degrees[self._buffer])))
        scores = self.score.score_rows(self._prefix, lo, hi, cuts, valid)
        return self._mechanism.select_indices(scores, valid, self._rng.random(len(lo)))

    def _privacy_cost(self) -> PrivacyCost:
        """Total cost of the specialization phase."""
        return PrivacyCost(self.config.epsilon, 0.0)

    # ------------------------------------------------------------------
    # Hierarchy construction
    # ------------------------------------------------------------------
    def build(self, graph: BipartiteGraph) -> SpecializationResult:
        """Run the specialization and return the resulting hierarchy.

        Every group keeps its left and right members as contiguous segments
        of one index buffer (left nodes first), so a split is a cut position
        and a level is one label vector.  A level is built in one pass over
        arrays: :func:`~repro.grouping.splitters.split_sides` cuts every
        side of every group together.  Raises :class:`SpecializationError`
        for empty graphs.
        """
        if graph.num_nodes() == 0:
            raise SpecializationError("cannot specialize an empty graph")
        self._selections = 0
        self._mechanism = ExponentialMechanism(
            epsilon=self.config.epsilon_per_round(),
            score_sensitivity=self.score.sensitivity,
            rng=self._rng,
        )
        config = self.config
        top = config.num_levels
        arrays = graph.arrays()
        table = arrays.node_table()
        num_left, num_nodes = arrays.num_left, arrays.num_nodes
        str_ranks = ranks_of(table.str_order)
        keys = self.splitter.sort_keys(table.nodes, arrays.degrees, str_ranks)
        self._degrees = arrays.degrees
        self._buffer = np.arange(num_nodes)
        self._prefix = None

        # A level is its group ids plus arrays: segments (left lo, hi, right
        # lo, hi) into the buffer, side codes and parent codes.
        ids = ["root"]
        segments = np.array([[0, num_left, num_left, num_nodes]], dtype=np.int64)
        sides = np.array([MIXED])
        levels: Dict[int, Partition] = {top: self._level_partition(table, ids, sides, segments, top)}
        parent_codes: Dict[int, np.ndarray] = {}
        fanouts = np.array([[config.left_fanout, config.right_fanout]], dtype=np.int64)
        rounds = config.rounds_per_transition()
        most_children = max(config.left_fanout + config.right_fanout, config.single_side_fanout)
        suffixes = [f"/{index}" for index in range(most_children)]
        for level in range(top - 1, 0, -1):
            if level == top - 1 or self.splitter.reorders:
                # Sort every segment by key; cuts of a sorted segment stay sorted.
                starts = np.repeat(self._segment_starts, self._segment_lengths)
                self._buffer = self._buffer[np.lexsort((keys[self._buffer], starts))]
                self._prefix = None
            lengths = segments[:, 1::2] - segments[:, 0::2]
            split = lengths.sum(axis=1) > config.min_group_size
            mixed = (lengths > 0).all(axis=1)
            fanout = np.where(mixed[:, None], fanouts, config.single_side_fanout)[split].ravel()
            lo, hi = segments[split][:, 0::2].ravel(), segments[split][:, 1::2].ravel()
            part_lo, part_hi, counts = split_sides(
                self._buffer, lo, hi, fanout, rounds, self.splitter, self._select, rng=self._rng
            )
            self._selections += int(np.maximum(counts - 1, 0).sum())

            # Children, parent by parent: a carried-down group's one copy, or
            # its left parts then its right parts.
            num_children = np.ones(len(ids), dtype=np.int64)
            num_children[split] = counts.reshape(-1, 2).sum(axis=1)
            parents = np.repeat(np.arange(len(ids)), num_children)
            from_split = split[parents]
            child_segments = np.zeros((len(parents), 4), dtype=np.int64)
            child_sides = np.empty(len(parents), dtype=np.int64)
            child_segments[~from_split] = segments[~split]
            child_sides[~from_split] = sides[~split]
            part_sides = np.repeat(np.tile([LEFT, RIGHT], len(counts) // 2), counts)
            rows = np.flatnonzero(from_split)
            child_segments[rows, 2 * part_sides] = part_lo
            child_segments[rows, 2 * part_sides + 1] = part_hi
            child_sides[rows] = part_sides
            ids = [
                parent_id + suffix
                for parent_id, count in zip(ids, num_children.tolist())
                for suffix in suffixes[:count]
            ]
            segments, sides = child_segments, child_sides
            parent_codes[level] = parents
            levels[level] = self._level_partition(table, ids, sides, segments, level)

        if config.include_individual_level:
            # One singleton per node, grouped by level-1 parent, in str order.
            above = levels[1]
            order = np.lexsort((str_ranks, above.labels))
            parent_codes[0] = above.labels[order]
            nodes = table.nodes
            ids = [f"u:{nodes[i]}" for i in order.tolist()]
            node_sides = sides[parent_codes[0]]
            node_sides = np.where(node_sides == MIXED, (order >= num_left).astype(np.int64), node_sides)
            names = [SIDE_NAMES[code] for code in node_sides.tolist()]
            levels[0] = Partition.from_labels(table, ranks_of(order), ids, names, [0] * num_nodes)

        hierarchy = GroupHierarchy(levels, parent_codes=parent_codes, validate=True)
        return SpecializationResult(
            hierarchy=hierarchy,
            privacy_cost=self._privacy_cost(),
            num_selections=self._selections,
            config=config,
            method=self.method_name,
        )

    def _level_partition(
        self, table: NodeTable, ids: list, sides: np.ndarray, segments: np.ndarray, level: int
    ) -> Partition:
        """One level's partition: every segment labelled with its group's code.

        Also records the segments' starts and lengths in buffer order: the
        next level may sort each segment by the splitter's keys.
        """
        starts = segments[:, 0::2].ravel()
        order = np.argsort(starts, kind="stable")
        lengths = (segments[:, 1::2] - segments[:, 0::2]).ravel()[order]
        labels = np.empty(len(table), dtype=np.int64)
        labels[self._buffer] = np.repeat(order // 2, lengths)
        self._segment_starts, self._segment_lengths = starts[order], lengths
        names = [SIDE_NAMES[code] for code in sides.tolist()]
        return Partition.from_labels(table, labels, ids, names, [level] * len(ids))


class DeterministicSpecializer(Specializer):
    """Non-private baseline: always take the most balanced (median) candidate.

    Because the split choice is a deterministic function of the data it does
    not satisfy differential privacy; the reported privacy cost is infinite.
    Used in the E4 ablation to isolate how much utility the Exponential
    Mechanism's randomness costs.
    """

    method_name = "deterministic"

    def _select(self, lo, hi, cuts, valid) -> np.ndarray:
        return np.argmin(np.where(valid, np.abs(cuts / (hi - lo)[:, None] - 0.5), np.inf), axis=1)

    def _privacy_cost(self) -> PrivacyCost:
        return PrivacyCost(math.inf, 0.0)


class RandomSpecializer(Specializer):
    """Data-independent baseline: random orderings, uniformly random candidate.

    The choice never looks at the data, so the specialization phase costs no
    privacy budget; utility of the resulting grouping is left to chance.
    """

    method_name = "random"

    def __init__(
        self,
        config: Optional[SpecializationConfig] = None,
        score: Optional[SplitScore] = None,
        splitter: Optional[Splitter] = None,
        rng: RandomState = None,
    ):
        config = config if config is not None else SpecializationConfig()
        splitter = splitter if splitter is not None else RandomOrderSplitter(cut_fractions=config.cut_fractions)
        super().__init__(config=config, score=score, splitter=splitter, rng=rng)

    def _select(self, lo, hi, cuts, valid) -> np.ndarray:
        return self._rng.integers(0, valid.sum(axis=1))

    def _privacy_cost(self) -> PrivacyCost:
        return PrivacyCost(0.0, 0.0)
