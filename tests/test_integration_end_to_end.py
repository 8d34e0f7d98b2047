"""Integration tests: the full pipeline across modules, small scale."""

import pytest

from repro import (
    AccessPolicy,
    DisclosureConfig,
    MultiLevelDiscloser,
    MultiLevelRelease,
    generate_dblp_like,
    generate_pharmacy_purchases,
    verify_release,
)
from repro.baselines.naive_group import NaiveGroupDPDiscloser
from repro.evaluation.experiments import run_e5_ablation_mechanism
from repro.evaluation.figure1 import (
    Figure1Config,
    build_figure1_hierarchy,
    figure1_metrics_from_release,
    run_figure1_analytic,
)
from repro.evaluation.metrics import expected_rer_gaussian, release_error_report
from repro.grouping.specialization import SpecializationConfig
from repro.utils.serialization import from_json_file, to_json_file


class TestEndToEndDisclosure:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_dblp_like(num_authors=400, seed=31)

    @pytest.fixture(scope="class")
    def release(self, graph):
        config = DisclosureConfig(
            epsilon_g=0.9, specialization=SpecializationConfig(num_levels=6)
        )
        return MultiLevelDiscloser(config=config, rng=31).disclose(graph)

    def test_release_verifies(self, release):
        verify_release(release)

    def test_release_serialises_and_still_verifies(self, release, tmp_path):
        path = to_json_file(release.to_dict(), tmp_path / "release.json")
        restored = MultiLevelRelease.from_dict(from_json_file(path))
        verify_release(restored)
        assert restored.levels() == release.levels()

    def test_errors_track_noise_scale(self, graph, release):
        # The realised RER per level should be on the order of the expected
        # RER implied by the level's noise scale (within a generous factor,
        # since a single draw has high variance).
        report = release_error_report(release, graph)
        true_count = graph.num_associations()
        for level, row in report.items():
            expected = expected_rer_gaussian(row["noise_scale"], true_count)
            assert row["rer"] <= 20 * expected + 1e-6

    def test_access_policy_view_matches_release(self, release):
        policy = AccessPolicy({"owner": 0, "partner": 2, "public": 4}, top_level=6)
        for role in policy.roles():
            view = policy.view_for(role, release)
            assert view.level >= policy.level_for(role)

    def test_privilege_ordering_of_expected_error(self, release):
        # Noise scale (hence expected error) must not decrease with level.
        scales = [release.level(level).noise_scale for level in release.levels()]
        assert scales == sorted(scales)


class TestEndToEndWithAttributes:
    def test_pharmacy_pipeline_runs(self):
        graph = generate_pharmacy_purchases(num_patients=200, num_drugs=40, seed=2)
        config = DisclosureConfig(
            epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
        )
        release = MultiLevelDiscloser(config=config, rng=2).disclose(graph)
        verify_release(release)
        assert release.levels() == [0, 1, 2]


class TestFigureOneConsistencyWithPipeline:
    """The figure harnesses and the pipeline share one calibration, exactly."""

    @pytest.mark.parametrize("mechanism", ["gaussian", "laplace"])
    def test_analytic_figure_matches_pipeline_noise_scales(self, mechanism):
        graph = generate_dblp_like(num_authors=300, seed=11)
        num_levels = 5
        config = DisclosureConfig(
            epsilon_g=0.5,
            mechanism=mechanism,
            specialization=SpecializationConfig(num_levels=num_levels),
        )
        discloser = MultiLevelDiscloser(config=config, rng=11)
        hierarchy = discloser.specializer.build(graph).hierarchy
        release = discloser.disclose(graph, hierarchy=hierarchy)

        fig_config = Figure1Config(
            num_levels=num_levels, epsilons=(0.5,), mechanism=mechanism, seed=11
        )
        figure = run_figure1_analytic(graph=graph, config=fig_config, hierarchy=hierarchy)

        true_count = float(graph.num_associations())
        rows = figure1_metrics_from_release(release, true_count=true_count)
        assert [row["level"] for row in rows] == figure.levels()
        for row in rows:
            level = row["level"]
            assert figure.sensitivities[level] == release.level(level).sensitivity
            assert figure.rer_at(level, 0.5) == row["expected_rer"]

    def test_e5_analytic_gaussian_rows_match_a_release(self):
        graph = generate_dblp_like(num_authors=300, seed=11)
        num_levels, seed = 5, 13
        rows = [
            row
            for row in run_e5_ablation_mechanism(
                num_levels=num_levels, epsilon_g=0.5, seed=seed, graph=graph
            )
            if row["variant"] == "analytic_gaussian"
        ]
        hierarchy = build_figure1_hierarchy(
            graph, Figure1Config(num_levels=num_levels, seed=seed), rng=seed
        )
        config = DisclosureConfig(
            epsilon_g=0.5,
            mechanism="analytic_gaussian",
            specialization=SpecializationConfig(num_levels=num_levels),
        )
        release = MultiLevelDiscloser(config=config, rng=seed).disclose(graph, hierarchy=hierarchy)
        expected = figure1_metrics_from_release(
            release, true_count=float(graph.num_associations())
        )
        assert [row["level"] for row in rows] == [row["level"] for row in expected]
        for row, published in zip(rows, expected):
            assert row["epsilon_g"] == published["epsilon"]
            assert row["noise_scale"] == published["noise_scale"]
            assert row["expected_rer"] == published["expected_rer"]

    def test_naive_baseline_worse_at_every_level(self):
        graph = generate_dblp_like(num_authors=300, seed=12)
        config = DisclosureConfig(epsilon_g=0.5, specialization=SpecializationConfig(num_levels=5))
        discloser = MultiLevelDiscloser(config=config, rng=12)
        hierarchy = discloser.specializer.build(graph).hierarchy
        paper = discloser.disclose(graph, hierarchy=hierarchy)
        naive = NaiveGroupDPDiscloser(epsilon_g=0.5, rng=12).disclose(graph, hierarchy, levels=paper.levels())
        for level in paper.levels():
            assert naive.level(level).noise_scale >= paper.level(level).noise_scale
