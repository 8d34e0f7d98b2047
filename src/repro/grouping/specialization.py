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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import SpecializationError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.partition import NodeTable, Partition
from repro.grouping.scores import BalancedAssociationScore, SplitScore
from repro.grouping.splitters import HashOrderSplitter, RandomOrderSplitter, Splitter, ranks_of, split_into_parts
from repro.mechanisms.base import PrivacyCost
from repro.mechanisms.exponential import ExponentialMechanism
from repro.utils.rng import RandomState, derive_rng
from repro.utils.validation import check_positive, check_positive_int

#: Side names of the two segment buffers, by buffer index.
SIDES = ("left", "right")


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
        """Sequential Exponential-Mechanism rounds needed per transition.

        Splits of disjoint node sets compose in parallel, so the sequential
        depth of one transition is the number of recursive-bisection rounds
        needed to reach the largest fanout.
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
    def _choose(self, segment: np.ndarray, cuts: Tuple[int, ...]) -> int:
        """Pick one of ``cuts`` into ``segment`` (node indices, in order) with
        the Exponential Mechanism; returns the index into ``cuts``."""
        self._selections += 1
        return self._mechanism.select_index(self.score.scores(self._degrees[segment].tolist(), cuts))

    def _privacy_cost(self) -> PrivacyCost:
        """Total cost of the specialization phase."""
        return PrivacyCost(self.config.epsilon, 0.0)

    # ------------------------------------------------------------------
    # Hierarchy construction
    # ------------------------------------------------------------------
    def build(self, graph: BipartiteGraph) -> SpecializationResult:
        """Run the specialization and return the resulting hierarchy.

        Every group keeps its left and right members as contiguous segments
        of two index buffers (one per side), so a split is a cut position
        and a level is one label vector.  Raises
        :class:`SpecializationError` for empty graphs.
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
        table = NodeTable(list(arrays.left_ids) + list(arrays.right_ids))
        num_left, num_nodes = arrays.num_left, arrays.num_nodes
        str_ranks = ranks_of(table.str_order)
        self._degrees = arrays.degrees
        self._keys = self.splitter.sort_keys(table.nodes, arrays.degrees, str_ranks)
        self._buffers = (np.arange(num_left), np.arange(num_left, num_nodes))

        # A level is parallel lists of group ids, sides and segments
        # (left lo, left hi, right lo, right hi) into the two buffers.
        ids, sides, segments = ["root"], ["mixed"], [(0, num_left, 0, num_nodes - num_left)]
        levels: Dict[int, Partition] = {top: self._level_partition(table, ids, sides, segments, top)}
        parents: Dict[str, str] = {}
        for level in range(top - 1, 0, -1):
            for buffer, starts in zip(self._buffers, self._starts):
                buffer[:] = buffer[np.lexsort((self._keys[buffer], starts))]
            child_ids, child_sides, child_segments = [], [], []
            for parent_id, side, segs in zip(ids, sides, segments):
                if segs[1] - segs[0] + segs[3] - segs[2] <= config.min_group_size:
                    children = [(side, segs)]  # carried down unchanged
                else:
                    children = self._split_group(segs)
                for index, (child_side, child_segs) in enumerate(children):
                    child_id = f"{parent_id}/{index}"
                    parents[child_id] = parent_id
                    child_ids.append(child_id)
                    child_sides.append(child_side)
                    child_segments.append(child_segs)
            ids, sides, segments = child_ids, child_sides, child_segments
            levels[level] = self._level_partition(table, ids, sides, segments, level)

        if config.include_individual_level:
            # One singleton per node, grouped by level-1 parent, in str order.
            above = levels[1]
            order = np.lexsort((str_ranks, above.labels))
            positions, codes = order.tolist(), above.labels[order].tolist()
            ids = [f"u:{table.nodes[i]}" for i in positions]
            parent_ids = above.group_ids()
            parents.update(zip(ids, [parent_ids[code] for code in codes]))
            sides = [
                SIDES[position >= num_left] if above.sides[code] == "mixed" else above.sides[code]
                for position, code in zip(positions, codes)
            ]
            levels[0] = Partition.from_labels(table, ranks_of(order), ids, sides, [0] * num_nodes)

        hierarchy = GroupHierarchy(levels, parents=parents, validate=True)
        return SpecializationResult(
            hierarchy=hierarchy,
            privacy_cost=self._privacy_cost(),
            num_selections=self._selections,
            config=config,
            method=self.method_name,
        )

    def _level_partition(self, table: NodeTable, ids: list, sides: list, segments: list, level: int) -> Partition:
        """One level's partition: every segment labelled with its group's code.

        Also records, per buffer position, where its segment starts: the
        next level sorts each segment by the splitter's keys in place.
        """
        labels = np.empty(len(table), dtype=np.int64)
        spans = np.array(segments, dtype=np.int64).reshape(-1, 4)
        self._starts = []
        for buffer, lo, hi in zip(self._buffers, spans[:, 0::2].T, spans[:, 1::2].T):
            order = np.argsort(lo, kind="stable")
            lengths = (hi - lo)[order]
            labels[buffer] = np.repeat(order, lengths)
            self._starts.append(np.repeat(lo[order], lengths))
        return Partition.from_labels(table, labels, ids, sides, [level] * len(ids))

    def _split_group(self, segs: tuple) -> List[Tuple[str, tuple]]:
        """The ``(side, segments)`` of a group's children at the next level down."""
        config = self.config
        left_lo, left_hi, right_lo, right_hi = segs
        if left_hi > left_lo and right_hi > right_lo:
            fanouts = (config.left_fanout, config.right_fanout)
        else:
            fanouts = (config.single_side_fanout,) * 2
        children = []
        for index, (lo, hi) in enumerate(((left_lo, left_hi), (right_lo, right_hi))):
            parts = split_into_parts(
                self._buffers[index], lo, hi, fanouts[index], self.splitter, self._choose, rng=self._rng
            )
            children.extend((SIDES[index], part + (0, 0) if index == 0 else (0, 0) + part) for part in parts)
        return children


class DeterministicSpecializer(Specializer):
    """Non-private baseline: always take the most balanced (median) candidate.

    Because the split choice is a deterministic function of the data it does
    not satisfy differential privacy; the reported privacy cost is infinite.
    Used in the E4 ablation to isolate how much utility the Exponential
    Mechanism's randomness costs.
    """

    method_name = "deterministic"

    def _choose(self, segment: np.ndarray, cuts: Tuple[int, ...]) -> int:
        self._selections += 1
        return min(range(len(cuts)), key=lambda index: abs(cuts[index] / len(segment) - 0.5))

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

    def _choose(self, segment: np.ndarray, cuts: Tuple[int, ...]) -> int:
        self._selections += 1
        return int(self._rng.integers(0, len(cuts)))

    def _privacy_cost(self) -> PrivacyCost:
        return PrivacyCost(0.0, 0.0)
