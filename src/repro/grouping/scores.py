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
from itertools import accumulate
from typing import List, Sequence

import numpy as np

from repro.utils.validation import check_positive


class SplitScore(abc.ABC):
    """Interface for split-quality functions used by the Exponential Mechanism.

    A candidate split cuts an ordered segment of nodes at a position ``c``:
    the first ``c`` nodes form one part, the rest the other.  Scores see the
    segment only through its nodes' degrees, in order.  Segments are small
    and scored hundreds of times per hierarchy, so scores work on plain
    Python sequences.
    """

    #: Sensitivity of the score with respect to adding/removing one universe
    #: element.  Subclasses override when their score moves by more than 1.
    sensitivity: float = 1.0

    @abc.abstractmethod
    def scores(self, degrees: Sequence[int], cuts: Sequence[int]) -> List[float]:
        """The quality of cutting the segment at each of ``cuts`` (higher is better)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(sensitivity={self.sensitivity})"


class BalanceScore(SplitScore):
    """Prefers splits whose two parts have (nearly) equal **node** counts.

    ``score = -| |A| - |B| |``.  Adding or removing one node changes the
    imbalance by at most one, so the sensitivity is 1.
    """

    sensitivity = 1.0

    def scores(self, degrees: Sequence[int], cuts: Sequence[int]) -> List[float]:
        return [float(-abs(2 * cut - len(degrees))) for cut in cuts]


class BalancedAssociationScore(SplitScore):
    """Prefers splits whose two parts carry (nearly) equal **association** mass.

    ``score = -| assoc(A) - assoc(B) | / degree_bound`` where ``assoc(X)`` is
    the number of associations incident to the nodes in ``X`` and
    ``degree_bound`` caps how much one node can move the score, making the
    sensitivity 1 after normalisation.  This is the default specialization
    score: balancing association mass keeps the per-group sensitivities of the
    phase-2 count queries comparable across sibling groups.  One prefix sum
    over the segment's degrees scores every cut.

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

    def scores(self, degrees: Sequence[int], cuts: Sequence[int]) -> List[float]:
        prefix = list(accumulate(degrees))
        return [-abs(2 * prefix[cut - 1] - prefix[-1]) / self.degree_bound for cut in cuts]


class EdgeUniformityScore(SplitScore):
    """Prefers splits in which association mass is spread uniformly over nodes.

    ``score = -(std of per-node degree within each part, averaged) /
    degree_bound``.  Useful when downstream queries are per-group counts and
    heavy-hitter nodes should not be concentrated in one subgroup.
    """

    def __init__(self, degree_bound: float = 50.0):
        self.degree_bound = check_positive(degree_bound, "degree_bound")
        self.sensitivity = 1.0

    def scores(self, degrees: Sequence[int], cuts: Sequence[int]) -> List[float]:
        degrees = np.asarray(degrees, dtype=np.float64)
        return [
            -0.5 * (float(np.std(degrees[:cut])) + float(np.std(degrees[cut:]))) / self.degree_bound
            for cut in cuts
        ]
