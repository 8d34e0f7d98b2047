"""Tests for the specialization (phase-1) procedure."""

import math

import numpy as np
import pytest

from repro.datasets.dblp_like import generate_dblp_like
from repro.exceptions import SpecializationError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.specialization import (
    DeterministicSpecializer,
    RandomSpecializer,
    SpecializationConfig,
    Specializer,
)


class TestSpecializationConfig:
    def test_defaults_match_paper(self):
        config = SpecializationConfig()
        assert config.num_levels == 9
        assert config.left_fanout == 2
        assert config.right_fanout == 2
        assert config.single_side_fanout == 4

    def test_round_accounting(self):
        config = SpecializationConfig(num_levels=5, epsilon=1.0)
        assert config.num_transitions() == 4
        assert config.rounds_per_transition() == 2  # fanout 4 needs two bisection rounds
        assert config.total_rounds() == 8
        assert config.epsilon_per_round() == pytest.approx(1.0 / 8)

    def test_rounds_for_binary_fanout(self):
        config = SpecializationConfig(num_levels=3, single_side_fanout=2)
        assert config.rounds_per_transition() == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            SpecializationConfig(num_levels=0)
        with pytest.raises(ValidationError):
            SpecializationConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            SpecializationConfig(left_fanout=0)

    def test_to_dict(self):
        data = SpecializationConfig(num_levels=4).to_dict()
        assert data["num_levels"] == 4
        assert "cut_fractions" in data


class TestSpecializerStructure:
    @pytest.fixture(scope="class")
    def result(self, dblp_graph):
        return Specializer(config=SpecializationConfig(num_levels=5), rng=3).build(dblp_graph)

    def test_levels_present(self, result):
        assert result.hierarchy.level_indices() == [0, 1, 2, 3, 4, 5]

    def test_top_level_is_whole_universe(self, result, dblp_graph):
        top = result.hierarchy.partition_at(5)
        assert top.num_groups() == 1
        assert top.universe() == frozenset(dblp_graph.nodes())

    def test_bottom_level_is_singletons(self, result):
        bottom = result.hierarchy.partition_at(0)
        assert all(group.is_singleton() for group in bottom.groups())

    def test_every_level_covers_universe(self, result, dblp_graph):
        universe = frozenset(dblp_graph.nodes())
        for level in result.hierarchy.level_indices():
            assert result.hierarchy.partition_at(level).universe() == universe

    def test_group_counts_grow_towards_fine_levels(self, result):
        counts = [
            result.hierarchy.partition_at(level).num_groups()
            for level in sorted(result.hierarchy.level_indices(), reverse=True)
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_first_split_produces_left_and_right_groups(self, result):
        level = result.hierarchy.top_level - 1
        sides = {group.side for group in result.hierarchy.groups_at(level)}
        assert sides == {"left", "right"}

    def test_privacy_cost_equals_configured_epsilon(self, result):
        assert result.privacy_cost.epsilon == pytest.approx(1.0)
        assert result.privacy_cost.delta == 0.0

    def test_selection_counter_positive(self, result):
        assert result.num_selections > 0

    def test_result_to_dict(self, result):
        data = result.to_dict()
        assert data["method"] == "exponential"
        assert "hierarchy" in data


class TestSpecializerBehaviour:
    def test_seeded_reproducibility(self, dblp_graph):
        config = SpecializationConfig(num_levels=4)
        first = Specializer(config=config, rng=9).build(dblp_graph)
        second = Specializer(config=config, rng=9).build(dblp_graph)
        for level in first.hierarchy.level_indices():
            assert first.hierarchy.partition_at(level).sizes() == second.hierarchy.partition_at(level).sizes()

    def test_different_seeds_differ(self, dblp_graph):
        config = SpecializationConfig(num_levels=4)
        first = Specializer(config=config, rng=1).build(dblp_graph)
        second = Specializer(config=config, rng=2).build(dblp_graph)
        differs = any(
            first.hierarchy.partition_at(level).sizes() != second.hierarchy.partition_at(level).sizes()
            for level in first.hierarchy.level_indices()
            if level not in (0, first.hierarchy.top_level)
        )
        assert differs

    def test_empty_graph_rejected(self):
        with pytest.raises(SpecializationError):
            Specializer().build(BipartiteGraph())

    def test_single_node_graph(self):
        graph = BipartiteGraph()
        graph.add_left_node("only")
        result = Specializer(config=SpecializationConfig(num_levels=3), rng=0).build(graph)
        assert result.hierarchy.partition_at(0).num_groups() == 1
        assert result.hierarchy.partition_at(3).num_groups() == 1

    def test_without_individual_level(self, dblp_graph):
        config = SpecializationConfig(num_levels=3, include_individual_level=False)
        result = Specializer(config=config, rng=0).build(dblp_graph)
        assert 0 not in result.hierarchy.level_indices()
        assert result.hierarchy.bottom_level == 1

    def test_min_group_size_respected(self, dblp_graph):
        config = SpecializationConfig(num_levels=6, min_group_size=50)
        result = Specializer(config=config, rng=0).build(dblp_graph)
        # Groups at or below the floor are carried down, never split further:
        # no level-1 group may have a *sibling set* that splits a <=50 parent.
        hierarchy = result.hierarchy
        for level in range(1, 6):
            for group in hierarchy.groups_at(level):
                children = hierarchy.children_of(group.group_id)
                if len(group) <= 50:
                    assert len(children) <= 1 or all(
                        hierarchy.partition_at(level - 1).group(c).members == group.members
                        for c in children
                    ) or level == 1


class CountingSpecializer(Specializer):
    """Counts, per node, the Exponential-Mechanism selections it takes part in."""

    def build(self, graph):
        self.node_selections = np.zeros(graph.num_nodes(), dtype=np.int64)
        return super().build(graph)

    def _select(self, lo, hi, cuts, valid):
        for start, stop in zip(lo.tolist(), hi.tolist()):
            self.node_selections[self._buffer[start:stop]] += 1
        return super()._select(lo, hi, cuts, valid)


class TestEpsilonAccounting:
    """The specialization budget is split over ``total_rounds()`` sequential
    selections, so no node may take part in more than that many: each of
    its selections spends ``epsilon_per_round()`` of the same node's budget.
    Cutting a part of a part within one transition broke this on large
    graphs (5,000 authors: 221 nodes in 19 selections against 16)."""

    @pytest.mark.parametrize("authors,num_levels", [(5000, 9), (1000, 6)])
    def test_no_node_is_in_more_than_total_rounds_selections(self, authors, num_levels):
        graph = generate_dblp_like(num_authors=authors, seed=1)
        specializer = CountingSpecializer(SpecializationConfig(num_levels=num_levels), rng=1)
        result = specializer.build(graph)
        assert specializer.node_selections.max() <= specializer.config.total_rounds()
        assert result.privacy_cost.epsilon == specializer.config.epsilon


class TestBaselineSpecializers:
    def test_deterministic_is_reproducible_without_seed(self, dblp_graph):
        config = SpecializationConfig(num_levels=4)
        first = DeterministicSpecializer(config=config).build(dblp_graph)
        second = DeterministicSpecializer(config=config).build(dblp_graph)
        for level in first.hierarchy.level_indices():
            assert first.hierarchy.partition_at(level).sizes() == second.hierarchy.partition_at(level).sizes()

    def test_deterministic_reports_infinite_cost(self, dblp_graph):
        result = DeterministicSpecializer(config=SpecializationConfig(num_levels=3)).build(dblp_graph)
        assert math.isinf(result.privacy_cost.epsilon)
        assert result.method == "deterministic"

    def test_random_reports_zero_cost(self, dblp_graph):
        result = RandomSpecializer(config=SpecializationConfig(num_levels=3), rng=4).build(dblp_graph)
        assert result.privacy_cost.epsilon == 0.0
        assert result.method == "random"

    def test_random_structure_valid(self, dblp_graph):
        result = RandomSpecializer(config=SpecializationConfig(num_levels=4), rng=4).build(dblp_graph)
        result.hierarchy.validate()
