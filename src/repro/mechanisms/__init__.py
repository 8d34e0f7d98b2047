"""Differential-privacy mechanism library.

Every mechanism is implemented from scratch on top of NumPy and exposes a
consistent interface (:class:`~repro.mechanisms.base.Mechanism`):

* construction takes the privacy parameters and the query sensitivity;
* :meth:`~repro.mechanisms.base.Mechanism.randomise` perturbs a scalar or an
  array of true answers;
* :meth:`~repro.mechanisms.base.Mechanism.privacy_cost` reports the
  ``(epsilon, delta)`` spent per invocation so the accounting layer can track
  budgets.

The paper uses the **Exponential Mechanism** for phase-1 specialization and
the **Gaussian Mechanism** for phase-2 noise injection; Laplace and
geometric are provided for the baselines and ablations.
"""

from repro.mechanisms.base import Mechanism, NumericMechanism, PrivacyCost
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.gaussian import AnalyticGaussianMechanism, GaussianMechanism
from repro.mechanisms.geometric import GeometricMechanism
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.calibration import (
    gaussian_sigma,
    analytic_gaussian_sigma,
    laplace_scale,
    geometric_alpha,
)

__all__ = [
    "Mechanism",
    "NumericMechanism",
    "PrivacyCost",
    "LaplaceMechanism",
    "GaussianMechanism",
    "AnalyticGaussianMechanism",
    "GeometricMechanism",
    "ExponentialMechanism",
    "gaussian_sigma",
    "analytic_gaussian_sigma",
    "laplace_scale",
    "geometric_alpha",
]
