"""Tests for the degree-histogram query."""

import numpy as np
import pytest

from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.partition import Group, Partition
from repro.queries.degree import DegreeHistogramQuery


class TestDegreeHistogramQuery:
    def test_evaluate_left_side(self, tiny_graph):
        answer = DegreeHistogramQuery(side=Side.LEFT, max_degree=3).evaluate(tiny_graph)
        histogram = answer.as_dict()
        assert histogram["degree=0"] == 1  # erin
        assert histogram["degree=1"] == 1  # carol
        assert histogram["degree=2"] == 2  # bob, dave
        assert histogram["degree>=3"] == 0

    def test_counts_sum_to_side_size(self, dblp_graph):
        answer = DegreeHistogramQuery(side=Side.LEFT, max_degree=20).evaluate(dblp_graph)
        assert int(answer.values.sum()) == dblp_graph.num_left()

    def test_clamping_into_last_bin(self, tiny_graph):
        answer = DegreeHistogramQuery(side=Side.LEFT, max_degree=1).evaluate(tiny_graph)
        histogram = answer.as_dict()
        assert histogram["degree>=1"] == 3  # carol, bob, dave all clamp to >=1

    def test_individual_sensitivity(self, tiny_graph):
        assert DegreeHistogramQuery().l1_sensitivity(tiny_graph, "individual") == 2.0

    def test_node_sensitivity(self, tiny_graph):
        query = DegreeHistogramQuery(max_degree=5)
        # insulin and aspirin each have two left neighbours: 2 * 2.
        assert query.l1_sensitivity(tiny_graph, "node") == 4.0

    def test_group_sensitivity_bounded_by_group_mass(self, tiny_graph):
        partition = Partition(
            [Group("g1", ["bob", "carol"]), Group("g2", ["dave", "erin", "insulin", "aspirin", "statin", "zoloft"])]
        )
        query = DegreeHistogramQuery(side=Side.LEFT, max_degree=5)
        sensitivity = query.l1_sensitivity(tiny_graph, "group", partition=partition)
        # g2 = {dave, erin, insulin, aspirin, statin, zoloft} touches 5 of the
        # 5 associations (all except none: dave-statin, dave-aspirin,
        # bob-insulin, carol-insulin, bob-aspirin) and contains 2 left nodes,
        # so the bound is 2 + 2*5 = 12.
        assert sensitivity == 12.0

    def test_l2_sensitivity_is_sqrt_of_l1(self, tiny_graph):
        query = DegreeHistogramQuery(max_degree=5)
        l1 = query.l1_sensitivity(tiny_graph, "individual")
        assert query.l2_sensitivity(tiny_graph, "individual") == pytest.approx(np.sqrt(l1))

    def test_group_l2_sensitivity_covers_many_nodes_leaving_one_bin(self):
        """A 5-edge matching whose right side is one group: removing it moves
        all five left nodes from bin 1 to bin 0, a change of (+5, -5) with L2
        norm sqrt(50).  sqrt(L1) = sqrt(10) would under-calibrate."""
        graph = BipartiteGraph()
        graph.add_left_nodes([f"a{i}" for i in range(5)])
        graph.add_right_nodes([f"b{i}" for i in range(5)])
        graph.add_associations((f"a{i}", f"b{i}") for i in range(5))
        partition = Partition.from_mapping(
            {"right": [f"b{i}" for i in range(5)], **{f"a{i}": [f"a{i}"] for i in range(5)}}
        )
        query = DegreeHistogramQuery(side=Side.LEFT, max_degree=3)
        before = query.evaluate(graph).values
        removed = graph.copy()
        removed.remove_nodes([f"b{i}" for i in range(5)])
        change = np.linalg.norm(query.evaluate(removed).values - before)
        assert change == pytest.approx(np.sqrt(50.0))
        # The bound sqrt(I**2 + (m + I)**2) with I = 5, m = 0 is tight here.
        assert query.l2_sensitivity(graph, "group", partition=partition) == pytest.approx(
            np.sqrt(50.0)
        )

    def test_group_l2_sensitivity_never_exceeds_l1(self, dblp_graph, dblp_hierarchy):
        query = DegreeHistogramQuery(side=Side.LEFT, max_degree=15)
        for level in dblp_hierarchy.level_indices():
            partition = dblp_hierarchy.partition_at(level)
            l1 = query.l1_sensitivity(dblp_graph, "group", partition=partition)
            l2 = query.l2_sensitivity(dblp_graph, "group", partition=partition)
            assert np.sqrt(l1) <= l2 <= l1

    def test_invalid_max_degree(self):
        with pytest.raises(ValueError):
            DegreeHistogramQuery(max_degree=0)
