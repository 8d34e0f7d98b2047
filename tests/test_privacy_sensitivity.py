"""Tests for sensitivity computations."""

import pytest

from repro.core.common import L2_MECHANISMS, MECHANISM_BUILDERS, normalise_workload
from repro.core.pipeline import calibrated_sensitivity
from repro.evaluation.figure1 import level_sensitivities
from repro.exceptions import SensitivityError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.partition import Group, Partition
from repro.privacy.sensitivity import (
    group_count_sensitivity,
    group_workload_l1_sensitivity,
    node_count_sensitivity,
    scale_sensitivity,
)
from repro.queries.degree import DegreeHistogramQuery
from repro.queries.workload import QueryWorkload


class TestScalarSensitivities:
    def test_individual_is_one(self, tiny_graph):
        # Record-level adjacency: one association changes the count by one.
        count = normalise_workload(None)
        assert calibrated_sensitivity(count, tiny_graph, "gaussian") == 1.0
        assert calibrated_sensitivity(count, tiny_graph, "laplace") == 1.0

    def test_node_is_max_degree(self, tiny_graph):
        assert node_count_sensitivity(tiny_graph) == 2.0

    def test_node_with_degree_bound(self, tiny_graph):
        assert node_count_sensitivity(tiny_graph, degree_bound=1) == 1.0

    def test_node_empty_graph_floor(self):
        assert node_count_sensitivity(BipartiteGraph()) == 1.0

    def test_node_degree_bound_on_empty_graph(self):
        # With no edges to measure, the declared bound is the sensitivity.
        assert node_count_sensitivity(BipartiteGraph(), degree_bound=3) == 3.0

    def test_group_sensitivity_two_group_partition(self, tiny_graph, tiny_partition):
        assert group_count_sensitivity(tiny_graph, tiny_partition) == 5.0

    def test_group_sensitivity_monotone_in_coarseness(self, dblp_graph, dblp_hierarchy):
        # Coarser levels can only have larger (or equal) worst-case incident mass.
        values = [
            group_count_sensitivity(dblp_graph, dblp_hierarchy.partition_at(level))
            for level in dblp_hierarchy.level_indices()
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_group_sensitivity_empty_partition_raises(self, tiny_graph):
        with pytest.raises(SensitivityError):
            group_count_sensitivity(tiny_graph, Partition([]))


class TestPerGroupCounts:
    def test_incident_counts(self, tiny_graph):
        partition = Partition(
            [
                Group("g1", frozenset(["bob", "carol"])),
                Group("g2", frozenset(["dave", "erin"])),
            ]
        )
        # g1 touches 3 associations, g2 touches 2: the worst group is g1.
        counts = tiny_graph.arrays().incident_counts(partition)
        assert sorted(counts.tolist()) == [2, 3]
        assert group_count_sensitivity(tiny_graph, partition) == 3.0

    def test_workload_l1_is_max_induced_count(self, tiny_graph):
        partition = Partition(
            [
                Group("g1", frozenset(["bob", "insulin", "aspirin"])),
                Group("g2", frozenset(["carol", "dave", "statin", "erin", "zoloft"])),
            ]
        )
        # g1 induces 2 associations, g2 induces 1 (dave-statin).
        assert group_workload_l1_sensitivity(tiny_graph, partition) == 2.0

    def test_workload_sensitivity_empty_partition_raises(self, tiny_graph):
        with pytest.raises(SensitivityError):
            group_workload_l1_sensitivity(tiny_graph, Partition([]))


class TestCrossLevel:
    def test_cross_level_matches_per_level(self, dblp_graph, dblp_hierarchy):
        levels = list(dblp_hierarchy.level_indices())
        values = level_sensitivities(dblp_graph, dblp_hierarchy, levels)
        assert sorted(values) == levels
        for level in levels:
            partition = dblp_hierarchy.partition_at(level)
            assert values[level] == group_count_sensitivity(dblp_graph, partition)


class TestCalibratedSensitivity:
    @pytest.mark.parametrize("mechanism", MECHANISM_BUILDERS)
    def test_record_level_without_partition(self, tiny_graph, mechanism):
        count = normalise_workload(None)
        assert calibrated_sensitivity(count, tiny_graph, mechanism) == 1.0

    @pytest.mark.parametrize("mechanism", MECHANISM_BUILDERS)
    def test_group_level_with_partition(self, tiny_graph, tiny_partition, mechanism):
        count = normalise_workload(None)
        assert calibrated_sensitivity(count, tiny_graph, mechanism, tiny_partition) == 5.0

    @pytest.mark.parametrize("mechanism", MECHANISM_BUILDERS)
    def test_norm_follows_mechanism(self, dblp_graph, dblp_hierarchy, mechanism):
        # A vector workload separates the norms: L2 for the Gaussian family,
        # L1 for every other mechanism.
        workload = QueryWorkload([DegreeHistogramQuery()])
        coarsest = dblp_hierarchy.partition_at(max(dblp_hierarchy.level_indices()))
        l1 = workload.l1_sensitivity(dblp_graph, adjacency="group", partition=coarsest)
        l2 = workload.l2_sensitivity(dblp_graph, adjacency="group", partition=coarsest)
        assert l1 != l2
        expected = l2 if mechanism in L2_MECHANISMS else l1
        assert calibrated_sensitivity(workload, dblp_graph, mechanism, coarsest) == expected

    def test_group_at_least_record_level(self, dblp_graph, dblp_hierarchy):
        count = normalise_workload(None)
        individual = calibrated_sensitivity(count, dblp_graph, "laplace")
        for level in dblp_hierarchy.level_indices():
            partition = dblp_hierarchy.partition_at(level)
            assert calibrated_sensitivity(count, dblp_graph, "laplace", partition) >= individual


class TestScale:
    def test_scale_sensitivity(self):
        assert scale_sensitivity(2.0, 3.0) == 6.0

    def test_scale_sensitivity_rejects_nonpositive(self):
        with pytest.raises(SensitivityError):
            scale_sensitivity(0.0, 1.0)
        with pytest.raises(SensitivityError):
            scale_sensitivity(1.0, -2.0)
