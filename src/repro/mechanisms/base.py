"""Common interface for differential-privacy mechanisms."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.utils.rng import RandomState, as_rng

ArrayLike = Union[float, int, np.ndarray, list, tuple]


@dataclass(frozen=True)
class PrivacyCost:
    """The ``(epsilon, delta)`` privacy cost of one mechanism invocation.

    ``delta = 0`` denotes pure differential privacy.  Costs add under
    sequential composition (see :mod:`repro.accounting.composition`).
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")

    def __add__(self, other: "PrivacyCost") -> "PrivacyCost":
        """Sequential (basic) composition of two costs."""
        if not isinstance(other, PrivacyCost):
            return NotImplemented
        return PrivacyCost(self.epsilon + other.epsilon, min(1.0, self.delta + other.delta))

    def scaled(self, k: int) -> "PrivacyCost":
        """Cost of ``k`` sequential invocations under basic composition."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return PrivacyCost(self.epsilon * k, min(1.0, self.delta * k))

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"epsilon": self.epsilon, "delta": self.delta}


class Mechanism(abc.ABC):
    """Abstract base class for all mechanisms.

    Subclasses must implement :meth:`privacy_cost`.  Numeric (additive-noise)
    mechanisms also implement :meth:`randomise`; selection mechanisms such as
    the Exponential Mechanism expose a :meth:`select`-style API instead.
    """

    def __init__(self, rng: RandomState = None):
        self._rng = as_rng(rng)

    @property
    def rng(self) -> np.random.Generator:
        """The generator driving this mechanism's randomness."""
        return self._rng

    @abc.abstractmethod
    def privacy_cost(self) -> PrivacyCost:
        """The ``(epsilon, delta)`` cost of a single invocation."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cost = self.privacy_cost()
        return f"{type(self).__name__}(epsilon={cost.epsilon}, delta={cost.delta})"


class NumericMechanism(Mechanism):
    """Base class for mechanisms that add noise to numeric query answers."""

    @abc.abstractmethod
    def noise_scale(self) -> float:
        """A scale parameter describing the magnitude of the injected noise.

        For the Laplace mechanism this is the scale ``b``; for Gaussian
        mechanisms it is the standard deviation ``sigma``.  Used by the
        evaluation harness to report expected error analytically.
        """

    @abc.abstractmethod
    def sample_noise(self, size=None) -> Union[float, np.ndarray]:
        """Draw raw noise (scalar if ``size is None``, else an array)."""

    def randomise(self, value: ArrayLike):
        """Return ``value`` plus freshly drawn noise.

        Scalars come back as ``float``; sequences and arrays come back as
        ``numpy.ndarray`` of the same shape.
        """
        if np.isscalar(value):
            return float(value) + float(self.sample_noise())
        array = np.asarray(value, dtype=float)
        return array + self.sample_noise(size=array.shape)

    def randomise_many(self, answers: Sequence[ArrayLike]) -> List[np.ndarray]:
        """Perturb several answer vectors with one concatenated noise draw.

        All answers are flattened into a single array, noised with one
        generator call, and split back into their original shapes.  For the
        Gaussian and Laplace families numpy's generator fills batched draws
        sequentially from the same bit stream, so the result is bit-for-bit
        identical to noising each answer in turn; the two-sided geometric
        interleaves its two underlying streams differently in batch (the
        distribution is unchanged).
        """
        arrays = [np.atleast_1d(np.asarray(a, dtype=float)) for a in answers]
        if not arrays:
            return []
        sizes = [a.size for a in arrays]
        flat = np.concatenate([a.ravel() for a in arrays])
        noisy = flat + self.sample_noise(size=flat.shape)
        split_points = np.cumsum(sizes)[:-1]
        return [
            part.reshape(a.shape) for part, a in zip(np.split(noisy, split_points), arrays)
        ]

    # British/American aliases keep the public API friendly to both spellings.
    randomize = randomise
    randomize_many = randomise_many
