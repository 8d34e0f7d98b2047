"""The Exponential Mechanism (McSherry & Talwar, FOCS 2007).

Phase 1 of the paper's pipeline partitions the node universe into a hierarchy
of groups by repeatedly choosing a binary split of each group via the
Exponential Mechanism, so that the *structure* of the grouping is itself
differentially private.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ValidationError
from repro.mechanisms.base import Mechanism, PrivacyCost
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive

Candidate = Hashable
ScoreFunction = Callable[[Candidate], float]


class ExponentialMechanism(Mechanism):
    """Select one of a finite set of candidates with probability
    proportional to ``exp(epsilon * score / (2 * score_sensitivity))``.

    Parameters
    ----------
    epsilon:
        Privacy budget per selection.
    score_sensitivity:
        Sensitivity of the score function with respect to the adjacency
        relation being protected (individual- or group-level).
    rng:
        Seed, generator, or ``None``.

    Notes
    -----
    Scores are shifted by their maximum before exponentiation, which leaves
    the selection distribution unchanged but avoids overflow for large
    ``epsilon * score`` products.
    """

    def __init__(self, epsilon: float, score_sensitivity: float = 1.0, rng: RandomState = None):
        super().__init__(rng=rng)
        self.epsilon = check_positive(epsilon, "epsilon")
        self.score_sensitivity = check_positive(score_sensitivity, "score_sensitivity")

    def _weights(self, scores: Sequence[float]) -> Tuple[List[float], float]:
        """Unnormalised selection weights and their sum.

        Scalar float arithmetic rounds exactly like the elementwise array
        operations, so only the exponential and the sum run in NumPy.
        """
        scores = [float(score) for score in scores]
        if not scores:
            raise ValidationError("at least one candidate is required")
        if not all(map(math.isfinite, scores)):
            raise ValidationError("scores must be finite")
        scale = 2.0 * self.score_sensitivity
        logits = [self.epsilon * score / scale for score in scores]
        top = max(logits)
        weights = np.exp(np.array([logit - top for logit in logits]))
        return weights.tolist(), float(weights.sum())

    def selection_probabilities(self, scores: Sequence[float]) -> np.ndarray:
        """Return the probability assigned to each candidate given ``scores``."""
        weights, total = self._weights(scores)
        return np.array(weights) / total

    def select_index(self, scores: Sequence[float]) -> int:
        """Select a candidate index given its score array.

        Inverse-CDF sampling from one ``random()`` draw, step for step what
        ``rng.choice(len(p), p=p)`` does (cumulative sum, divided by its last
        entry, searched from the right): the same index, and the same
        generator state afterwards, without its per-call validation cost.
        """
        weights, total = self._weights(scores)
        cdf = list(accumulate(weight / total for weight in weights))
        last = cdf[-1]
        return bisect_right([value / last for value in cdf], self.rng.random())

    def select_indices(self, scores: np.ndarray, valid: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One :meth:`select_index` per row of a padded score matrix.

        Row ``i`` chooses among its first ``valid[i].sum()`` entries
        (``valid`` marks a prefix of each row; the rest is padding) by the
        inverse-CDF search of ``uniforms[i]``.  Every arithmetic step is
        :meth:`select_index`'s, elementwise, with padded entries at ``-inf``
        so their weight is exactly zero; only the row totals need care,
        because NumPy's sum unrolls rows of eight or more entries in a
        different order, so those rows are summed at their own length.
        Nothing is drawn: with ``uniforms`` from ``rng.random(len(scores))``
        the result, and the generator state after it, equals one
        :meth:`select_index` call per row.
        """
        scores = np.asarray(scores, dtype=np.float64)
        valid = np.asarray(valid, dtype=bool)
        counts = valid.sum(axis=1)
        if not counts.all():
            raise ValidationError("at least one candidate is required")
        if not np.isfinite(scores[valid]).all():
            raise ValidationError("scores must be finite")
        logits = np.where(valid, self.epsilon * scores / (2.0 * self.score_sensitivity), -np.inf)
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        if weights.shape[1] < 8:
            totals = weights.sum(axis=1)
        else:
            totals = np.empty(len(weights))
            for count in np.unique(counts).tolist():
                rows = counts == count
                totals[rows] = weights[rows, :count].sum(axis=1)
        cdf = np.cumsum(weights / totals[:, None], axis=1)
        # Padded entries repeat the last valid value, which no uniform in
        # [0, 1) reaches once normalised.
        return (cdf / cdf[:, -1:] <= np.asarray(uniforms)[:, None]).sum(axis=1)

    def select(
        self,
        candidates: Sequence[Candidate],
        scores: Optional[Sequence[float]] = None,
        score_fn: Optional[ScoreFunction] = None,
    ) -> Candidate:
        """Select one candidate.

        Either precomputed ``scores`` (one per candidate, same order) or a
        ``score_fn`` mapping candidate -> score must be supplied.
        """
        candidates = list(candidates)
        if not candidates:
            raise ValidationError("at least one candidate is required")
        if scores is None:
            if score_fn is None:
                raise ValidationError("either scores or score_fn must be provided")
            scores = [float(score_fn(c)) for c in candidates]
        else:
            scores = [float(s) for s in scores]
            if len(scores) != len(candidates):
                raise ValidationError(
                    f"got {len(scores)} scores for {len(candidates)} candidates"
                )
        return candidates[self.select_index(scores)]

    def privacy_cost(self) -> PrivacyCost:
        """Pure epsilon-DP per selection."""
        return PrivacyCost(self.epsilon, 0.0)
