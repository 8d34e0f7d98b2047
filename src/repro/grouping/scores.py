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
    segment only through its nodes' degrees, in order.  :meth:`scores` rates
    one segment's cuts on plain Python sequences; :meth:`score_rows` rates
    one cut set per segment for a whole specialization step at once.
    """

    #: Sensitivity of the score with respect to adding/removing one universe
    #: element.  Subclasses override when their score moves by more than 1.
    sensitivity: float = 1.0

    @abc.abstractmethod
    def scores(self, degrees: Sequence[int], cuts: Sequence[int]) -> List[float]:
        """The quality of cutting the segment at each of ``cuts`` (higher is better)."""

    def score_rows(
        self, prefix: np.ndarray, lo: np.ndarray, hi: np.ndarray, cuts: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Score many segments' cuts at once: an ``(m, K)`` matrix.

        ``prefix`` is the degree prefix sum of an ordered node buffer
        (``prefix[i]`` sums the first ``i`` degrees).  Row ``i`` scores
        cutting ``buffer[lo[i]:hi[i]]`` at each valid entry of ``cuts[i]``
        (``valid`` marks a prefix of each row); padded entries are ``-inf``.
        This base version calls :meth:`scores` row by row, so a score's
        arithmetic is the same whichever entry point is used.
        """
        degrees = np.diff(prefix)
        out = np.full(cuts.shape, -np.inf)
        for row, (start, stop, count) in enumerate(zip(lo.tolist(), hi.tolist(), valid.sum(axis=1).tolist())):
            out[row, :count] = self.scores(degrees[start:stop].tolist(), cuts[row, :count].tolist())
        return out

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

    def score_rows(self, prefix, lo, hi, cuts, valid):
        return np.where(valid, -np.abs(2 * cuts - (hi - lo)[:, None]).astype(np.float64), -np.inf)


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

    def score_rows(self, prefix, lo, hi, cuts, valid):
        before = prefix[lo][:, None]
        mass = 2 * (prefix[lo[:, None] + cuts] - before) - (prefix[hi][:, None] - before)
        return np.where(valid, -np.abs(mass) / self.degree_bound, -np.inf)


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
