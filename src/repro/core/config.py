"""Configuration of the multi-level disclosure pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.common import MECHANISM_BUILDERS
from repro.exceptions import ValidationError
from repro.grouping.specialization import SpecializationConfig
from repro.utils.validation import check_fraction, check_positive

#: How the per-level budget is interpreted.
SUPPORTED_BUDGET_MODES: Tuple[str, ...] = ("per_level", "total")


@dataclass
class DisclosureConfig:
    """All knobs of the two-phase disclosure pipeline.

    Parameters
    ----------
    epsilon_g:
        The group-privacy budget.  In ``per_level`` budget mode (the paper's
        setting, and the default) *each* information level is protected at
        ``epsilon_g`` independently; in ``total`` mode ``epsilon_g`` is an
        end-to-end budget split across levels by ``allocation``.
    delta:
        The ``delta`` of the Gaussian mechanism (ignored by the pure-DP
        mechanisms).
    mechanism:
        Phase-2 mechanism: ``"gaussian"`` (paper), ``"analytic_gaussian"``,
        ``"laplace"`` or ``"geometric"``.
    specialization:
        Phase-1 configuration (number of levels, fanouts, specialization
        budget).
    release_levels:
        Which hierarchy levels get a released answer.  Defaults to
        ``0 .. num_levels - 2`` — the paper's information levels
        ``I_{9,0} .. I_{9,7}`` for a 9-level hierarchy (the top level, the
        whole dataset, is never released as its own protection level because
        protecting "the entire dataset as one group" would require destroying
        the answer entirely).
    budget_mode:
        ``"per_level"`` or ``"total"`` (see ``epsilon_g``).
    allocation:
        Name of the allocation strategy used in ``total`` mode
        (``"uniform"``, ``"geometric"`` or ``"proportional"``).
    allocation_ratio:
        Ratio parameter of the geometric allocation.
    """

    epsilon_g: float = 1.0
    delta: float = 1e-5
    mechanism: str = "gaussian"
    specialization: SpecializationConfig = field(default_factory=SpecializationConfig)
    release_levels: Optional[Sequence[int]] = None
    budget_mode: str = "per_level"
    allocation: str = "uniform"
    allocation_ratio: float = 2.0

    def __post_init__(self):
        check_positive(self.epsilon_g, "epsilon_g")
        check_fraction(self.delta, "delta")
        if self.mechanism not in MECHANISM_BUILDERS:
            raise ValidationError(
                f"mechanism must be one of {MECHANISM_BUILDERS}, got {self.mechanism!r}"
            )
        if self.budget_mode not in SUPPORTED_BUDGET_MODES:
            raise ValidationError(
                f"budget_mode must be one of {SUPPORTED_BUDGET_MODES}, got {self.budget_mode!r}"
            )
        if not isinstance(self.specialization, SpecializationConfig):
            raise ValidationError("specialization must be a SpecializationConfig")
        if self.release_levels is not None:
            levels = [int(level) for level in self.release_levels]
            if not levels:
                raise ValidationError("release_levels must not be empty when given")
            if any(level < 0 or level > self.specialization.num_levels for level in levels):
                raise ValidationError(
                    f"release_levels must lie in [0, {self.specialization.num_levels}], got {levels}"
                )
            self.release_levels = tuple(sorted(set(levels)))

    def resolved_release_levels(self) -> List[int]:
        """The levels that receive a released answer.

        Defaults to ``0 .. num_levels - 2`` (the paper's ``I_{L,0} .. I_{L,L-2}``).
        Levels without an individual level 0 (when
        ``specialization.include_individual_level`` is false) start at 1.
        """
        if self.release_levels is not None:
            return list(self.release_levels)
        lowest = 0 if self.specialization.include_individual_level else 1
        highest = max(lowest, self.specialization.num_levels - 2)
        return list(range(lowest, highest + 1))

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "epsilon_g": self.epsilon_g,
            "delta": self.delta,
            "mechanism": self.mechanism,
            "specialization": self.specialization.to_dict(),
            "release_levels": list(self.release_levels) if self.release_levels is not None else None,
            "budget_mode": self.budget_mode,
            "allocation": self.allocation,
            "allocation_ratio": self.allocation_ratio,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DisclosureConfig":
        """Rebuild from :meth:`to_dict` output — e.g. the ``config`` block of
        a stored release, which is how ``repro refresh`` reconstructs the
        original disclosure's configuration.  Unknown keys are ignored and
        missing keys fall back to the defaults, so configs stored by older
        versions still load, including those that recorded a since-retired
        setting (the ``engine`` choice, or the per-level pool and its size)."""
        kwargs = {
            key: data[key]
            for key in (
                "epsilon_g",
                "delta",
                "mechanism",
                "budget_mode",
                "allocation",
                "allocation_ratio",
            )
            if key in data
        }
        if data.get("specialization") is not None:
            kwargs["specialization"] = SpecializationConfig.from_dict(data["specialization"])
        if data.get("release_levels") is not None:
            kwargs["release_levels"] = tuple(data["release_levels"])
        return cls(**kwargs)

    @classmethod
    def paper_defaults(cls, epsilon_g: float = 1.0, delta: float = 1e-5) -> "DisclosureConfig":
        """The configuration used for Figure 1: 9 levels, 4-way splits, Gaussian noise."""
        return cls(
            epsilon_g=epsilon_g,
            delta=delta,
            mechanism="gaussian",
            specialization=SpecializationConfig(num_levels=9),
            budget_mode="per_level",
        )
