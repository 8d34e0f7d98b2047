"""Tests for the uniform-noise strawman baseline."""

import pytest

from repro.baselines.uniform_noise import UniformNoiseDiscloser
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.grouping.specialization import SpecializationConfig
from repro.privacy.sensitivity import group_count_sensitivity
from repro.queries.degree import DegreeHistogramQuery
from repro.queries.workload import QueryWorkload


class TestUniformNoiseDiscloser:
    def test_all_levels_share_the_same_noise_scale(self, dblp_graph, dblp_hierarchy):
        release = UniformNoiseDiscloser(epsilon_g=0.5, rng=1).disclose(dblp_graph, dblp_hierarchy)
        scales = {release.level(level).noise_scale for level in release.levels()}
        assert len(scales) == 1

    def test_scale_matches_coarsest_level_sensitivity(self, dblp_graph, dblp_hierarchy):
        release = UniformNoiseDiscloser(epsilon_g=0.5, rng=1).disclose(
            dblp_graph, dblp_hierarchy, levels=[0, 1, 2, 3]
        )
        worst = group_count_sensitivity(dblp_graph, dblp_hierarchy.partition_at(3))
        for level in release.levels():
            assert release.level(level).sensitivity == pytest.approx(worst)

    def test_scale_matches_coarsest_workload_sensitivity(self, dblp_graph, dblp_hierarchy):
        # A workload other than the count must be noised for its own group
        # sensitivity, not the count's, or the claimed epsilon does not hold.
        workload = QueryWorkload([DegreeHistogramQuery()])
        release = UniformNoiseDiscloser(epsilon_g=0.5, queries=workload, rng=1).disclose(
            dblp_graph, dblp_hierarchy, levels=[0, 1, 2, 3]
        )
        coarsest = dblp_hierarchy.partition_at(3)
        worst = workload.l2_sensitivity(dblp_graph, adjacency="group", partition=coarsest)
        assert worst > group_count_sensitivity(dblp_graph, coarsest)
        for level in release.levels():
            assert release.level(level).sensitivity == worst

    def test_fine_levels_noisier_than_paper_approach(self, dblp_graph, dblp_hierarchy):
        uniform = UniformNoiseDiscloser(epsilon_g=0.5, rng=1).disclose(dblp_graph, dblp_hierarchy)
        config = DisclosureConfig(epsilon_g=0.5, specialization=SpecializationConfig(num_levels=5))
        paper = MultiLevelDiscloser(config=config, rng=1).disclose(dblp_graph, hierarchy=dblp_hierarchy)
        finest = paper.levels()[0]
        assert uniform.level(finest).noise_scale >= paper.level(finest).noise_scale

    def test_explicit_levels_respected(self, dblp_graph, dblp_hierarchy):
        release = UniformNoiseDiscloser(epsilon_g=0.5, rng=1).disclose(
            dblp_graph, dblp_hierarchy, levels=[2, 4]
        )
        assert release.levels() == [2, 4]

    def test_config_recorded(self, dblp_graph, dblp_hierarchy):
        release = UniformNoiseDiscloser(epsilon_g=0.4, rng=1).disclose(dblp_graph, dblp_hierarchy, levels=[1])
        assert release.config["baseline"] == "uniform_noise"
