"""Score (quality) functions for candidate splits.

The Exponential Mechanism needs a score ``q(D, candidate)`` with bounded
sensitivity.  The paper does not spell out the score it uses for
specialization, only that splits are chosen "through an Exponential
Mechanism"; we therefore provide a small family of bounded-sensitivity scores
and make the choice an explicit configuration knob (ablated in experiment
E4 of DESIGN.md).

All scores follow the convention *higher is better*.
"""

from __future__ import annotations

import abc
from typing import Hashable, Sequence

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.splitters import CandidateSplit
from repro.utils.validation import check_positive

Node = Hashable


class SplitScore(abc.ABC):
    """Interface for split-quality functions used by the Exponential Mechanism."""

    #: Sensitivity of the score with respect to adding/removing one universe
    #: element.  Subclasses override when their score moves by more than 1.
    sensitivity: float = 1.0

    @abc.abstractmethod
    def score(self, graph: BipartiteGraph, split: CandidateSplit) -> float:
        """Return the quality of ``split`` on ``graph`` (higher is better)."""

    def scores(self, graph: BipartiteGraph, splits: Sequence[CandidateSplit]) -> np.ndarray:
        """Vectorised convenience wrapper around :meth:`score`."""
        return np.array([self.score(graph, split) for split in splits], dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(sensitivity={self.sensitivity})"


class BalanceScore(SplitScore):
    """Prefers splits whose two parts have (nearly) equal **node** counts.

    ``score = -| |A| - |B| |``.  Adding or removing one node changes the
    imbalance by at most one, so the sensitivity is 1.
    """

    sensitivity = 1.0

    def score(self, graph: BipartiteGraph, split: CandidateSplit) -> float:
        return -abs(len(split.part_a) - len(split.part_b))


class BalancedAssociationScore(SplitScore):
    """Prefers splits whose two parts carry (nearly) equal **association** mass.

    ``score = -| assoc(A) - assoc(B) | / degree_bound`` where ``assoc(X)`` is
    the number of associations incident to the nodes in ``X`` and
    ``degree_bound`` caps how much one node can move the score, making the
    sensitivity 1 after normalisation.  This is the default specialization
    score: balancing association mass keeps the per-group sensitivities of the
    phase-2 count queries comparable across sibling groups.

    Parameters
    ----------
    degree_bound:
        An upper bound on the degree of any node (nodes with larger degree
        still work; the score simply becomes more conservative).  Defaults to
        50, a typical cap used when releasing association graphs.
    """

    def __init__(self, degree_bound: float = 50.0):
        self.degree_bound = check_positive(degree_bound, "degree_bound")
        self.sensitivity = 1.0

    def score(self, graph: BipartiteGraph, split: CandidateSplit) -> float:
        arrays = graph.arrays()
        mass_a = arrays.degree_mass(split.part_a)
        mass_b = arrays.degree_mass(split.part_b)
        return -abs(mass_a - mass_b) / self.degree_bound

    def scores(self, graph: BipartiteGraph, splits: Sequence[CandidateSplit]) -> np.ndarray:
        """Batched scoring of one candidate set.

        Candidates produced by a :class:`~repro.grouping.splitters.Splitter`
        are prefix cuts of one shared node ordering, so a single aligned
        degree scan plus prefix sums scores every candidate — O(n + k)
        instead of O(n * k).  Other candidate sets (a custom splitter's) are
        scored one split at a time; the masses are exact integers either
        way, so the Exponential Mechanism sees identical scores.
        """
        if not splits:
            return super().scores(graph, splits)
        ordering = tuple(splits[0].part_a) + tuple(splits[0].part_b)
        shared_ordering = all(
            tuple(split.part_a) == ordering[: len(split.part_a)]
            and tuple(split.part_b) == ordering[len(split.part_a):]
            for split in splits
        )
        if not shared_ordering:
            return super().scores(graph, splits)
        prefix = np.zeros(len(ordering) + 1, dtype=np.int64)
        np.cumsum(graph.arrays().degrees_aligned(ordering), out=prefix[1:])
        total = int(prefix[-1])
        values = [
            -abs(2 * int(prefix[len(split.part_a)]) - total) / self.degree_bound
            for split in splits
        ]
        return np.array(values, dtype=float)


class EdgeUniformityScore(SplitScore):
    """Prefers splits in which association mass is spread uniformly over nodes.

    ``score = -(std of per-node degree within each part, averaged) /
    degree_bound``.  Useful when downstream queries are per-group counts and
    heavy-hitter nodes should not be concentrated in one subgroup.
    """

    def __init__(self, degree_bound: float = 50.0):
        self.degree_bound = check_positive(degree_bound, "degree_bound")
        self.sensitivity = 1.0

    @staticmethod
    def _degree_std(graph: BipartiteGraph, nodes) -> float:
        degrees = graph.arrays().degrees_of(nodes)
        return float(np.std(degrees)) if degrees.size else 0.0

    def score(self, graph: BipartiteGraph, split: CandidateSplit) -> float:
        std_a = self._degree_std(graph, split.part_a)
        std_b = self._degree_std(graph, split.part_b)
        return -0.5 * (std_a + std_b) / self.degree_bound
