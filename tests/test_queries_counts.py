"""Tests for count queries."""

import pytest

from repro.exceptions import SensitivityError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.partition import Group, Partition
from repro.privacy.sensitivity import group_count_sensitivity
from repro.queries.counts import GroupedAssociationCountQuery, TotalAssociationCountQuery


class TestTotalAssociationCountQuery:
    def test_evaluate(self, tiny_graph):
        answer = TotalAssociationCountQuery().evaluate(tiny_graph)
        assert answer.scalar() == 5.0
        assert answer.labels == ["total"]

    def test_individual_sensitivity(self, tiny_graph):
        assert TotalAssociationCountQuery().l1_sensitivity(tiny_graph, "individual") == 1.0

    def test_node_sensitivity(self, tiny_graph):
        assert TotalAssociationCountQuery().l1_sensitivity(tiny_graph, "node") == 2.0

    def test_group_sensitivity(self, tiny_graph, tiny_partition):
        query = TotalAssociationCountQuery()
        assert query.l1_sensitivity(tiny_graph, "group", partition=tiny_partition) == 5.0
        assert query.l2_sensitivity(tiny_graph, "group", partition=tiny_partition) == 5.0

    def test_group_without_partition_raises(self, tiny_graph):
        with pytest.raises(SensitivityError):
            TotalAssociationCountQuery().l1_sensitivity(tiny_graph, "group")

    def test_node_sensitivity_floor_on_empty_graph(self):
        assert TotalAssociationCountQuery().l1_sensitivity(BipartiteGraph(), "node") == 1.0

    def test_group_sensitivity_floor_for_edgeless_groups(self, tiny_graph):
        partition = Partition([Group("isolated", frozenset(["erin", "zoloft"]))])
        assert group_count_sensitivity(tiny_graph, partition) == 1.0
        query = TotalAssociationCountQuery()
        assert query.l1_sensitivity(tiny_graph, "group", partition=partition) == 1.0

    def test_singleton_groups_give_max_degree(self, tiny_graph):
        singletons = Partition.singletons(tiny_graph.nodes())
        assert group_count_sensitivity(tiny_graph, singletons) == 2.0
        query = TotalAssociationCountQuery()
        assert query.l1_sensitivity(tiny_graph, "group", partition=singletons) == 2.0

    def test_group_sensitivity_at_least_individual(self, dblp_graph, dblp_hierarchy):
        query = TotalAssociationCountQuery()
        individual = query.l1_sensitivity(dblp_graph, "individual")
        for level in dblp_hierarchy.level_indices():
            partition = dblp_hierarchy.partition_at(level)
            assert group_count_sensitivity(dblp_graph, partition) >= individual
            assert query.l1_sensitivity(dblp_graph, "group", partition=partition) >= individual

    def test_unknown_adjacency_raises(self, tiny_graph):
        with pytest.raises(SensitivityError):
            TotalAssociationCountQuery().l1_sensitivity(tiny_graph, "postcode")


class TestGroupedAssociationCountQuery:
    @pytest.fixture
    def query_partition(self):
        return Partition(
            [
                Group("hA", ["bob", "insulin", "aspirin"]),
                Group("hB", ["carol", "dave", "statin", "erin", "zoloft"]),
            ]
        )

    def test_evaluate_per_group_counts(self, tiny_graph, query_partition):
        answer = GroupedAssociationCountQuery(query_partition).evaluate(tiny_graph)
        values = answer.as_dict()
        assert values["hA"] == 2.0  # bob-insulin, bob-aspirin
        assert values["hB"] == 1.0  # dave-statin

    def test_individual_sensitivity_is_one(self, tiny_graph, query_partition):
        query = GroupedAssociationCountQuery(query_partition)
        assert query.l1_sensitivity(tiny_graph, "individual") == 1.0

    def test_group_sensitivity_same_partition(self, tiny_graph, query_partition):
        query = GroupedAssociationCountQuery(query_partition)
        sensitivity = query.l1_sensitivity(tiny_graph, "group", partition=query_partition)
        assert sensitivity == 2.0  # the largest induced count

    def test_group_sensitivity_different_partition_uses_incident_bound(
        self, tiny_graph, query_partition, tiny_partition
    ):
        query = GroupedAssociationCountQuery(query_partition)
        sensitivity = query.l1_sensitivity(tiny_graph, "group", partition=tiny_partition)
        assert sensitivity == 5.0

    def test_requires_partition_instance(self):
        with pytest.raises(SensitivityError):
            GroupedAssociationCountQuery({"g": ["a"]})

    def test_answer_labels_are_group_ids(self, tiny_graph, query_partition):
        answer = GroupedAssociationCountQuery(query_partition).evaluate(tiny_graph)
        assert set(answer.labels) == {"hA", "hB"}


class TestQueryAnswer:
    def test_scalar_on_vector_raises(self, tiny_graph):
        partition = Partition([Group("a", ["bob"]), Group("b", ["carol"])])
        answer = GroupedAssociationCountQuery(partition).evaluate(tiny_graph)
        with pytest.raises(ValueError):
            answer.scalar()

    def test_label_count_mismatch_rejected(self):
        from repro.queries.base import QueryAnswer

        with pytest.raises(ValueError):
            QueryAnswer(name="q", values=[1.0, 2.0], labels=["only-one"])

    def test_default_labels_generated(self):
        from repro.queries.base import QueryAnswer

        answer = QueryAnswer(name="q", values=[1.0, 2.0])
        assert answer.labels == ["q[0]", "q[1]"]

    def test_to_dict(self):
        from repro.queries.base import QueryAnswer

        data = QueryAnswer(name="q", values=[3.0], labels=["x"]).to_dict()
        assert data == {"name": "q", "labels": ["x"], "values": [3.0]}
