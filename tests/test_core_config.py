"""Tests for DisclosureConfig."""

import pytest

from repro.core.common import uses_l2_sensitivity
from repro.core.config import DisclosureConfig
from repro.exceptions import ValidationError
from repro.grouping.specialization import SpecializationConfig


class TestDisclosureConfig:
    def test_defaults(self):
        config = DisclosureConfig()
        assert config.epsilon_g == 1.0
        assert config.mechanism == "gaussian"
        assert config.budget_mode == "per_level"
        assert config.specialization.num_levels == 9

    def test_paper_defaults_factory(self):
        config = DisclosureConfig.paper_defaults(epsilon_g=0.3)
        assert config.epsilon_g == 0.3
        assert config.specialization.num_levels == 9
        assert config.resolved_release_levels() == list(range(0, 8))

    def test_resolved_release_levels_default(self):
        config = DisclosureConfig(specialization=SpecializationConfig(num_levels=5))
        assert config.resolved_release_levels() == [0, 1, 2, 3]

    def test_resolved_release_levels_without_individual_level(self):
        config = DisclosureConfig(
            specialization=SpecializationConfig(num_levels=5, include_individual_level=False)
        )
        assert config.resolved_release_levels() == [1, 2, 3]

    def test_explicit_release_levels_sorted_and_deduped(self):
        config = DisclosureConfig(
            specialization=SpecializationConfig(num_levels=5), release_levels=[3, 1, 3]
        )
        assert config.resolved_release_levels() == [1, 3]

    def test_release_levels_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            DisclosureConfig(specialization=SpecializationConfig(num_levels=4), release_levels=[7])

    def test_empty_release_levels_rejected(self):
        with pytest.raises(ValidationError):
            DisclosureConfig(release_levels=[])

    def test_invalid_mechanism(self):
        with pytest.raises(ValidationError):
            DisclosureConfig(mechanism="exponential")

    def test_invalid_budget_mode(self):
        with pytest.raises(ValidationError):
            DisclosureConfig(budget_mode="weekly")

    def test_invalid_epsilon_and_delta(self):
        with pytest.raises(ValidationError):
            DisclosureConfig(epsilon_g=0.0)
        with pytest.raises(ValidationError):
            DisclosureConfig(delta=0.0)

    def test_uses_l2_sensitivity(self):
        assert uses_l2_sensitivity(DisclosureConfig(mechanism="gaussian").mechanism)
        assert uses_l2_sensitivity(DisclosureConfig(mechanism="analytic_gaussian").mechanism)
        assert not uses_l2_sensitivity(DisclosureConfig(mechanism="laplace").mechanism)
        assert not uses_l2_sensitivity(DisclosureConfig(mechanism="geometric").mechanism)

    def test_specialization_type_enforced(self):
        with pytest.raises(ValidationError):
            DisclosureConfig(specialization={"num_levels": 9})

    def test_to_dict(self):
        data = DisclosureConfig().to_dict()
        assert data["mechanism"] == "gaussian"
        assert data["specialization"]["num_levels"] == 9
