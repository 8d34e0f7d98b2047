"""Brute-force group- and node-sensitivity oracle.

Group adjacency (paper Definition 3) pairs a dataset with the one obtained
by removing a whole group: its nodes and every association incident to
them.  For tiny hypothesis-generated graphs and partitions this suite
removes each group from a copy of the graph, re-evaluates the queries with
the readable per-query ``Query.evaluate`` and takes the largest L1 and L2
change.  The analytic sensitivities the release is calibrated to — every
query type's ``l1_/l2_sensitivity``, a whole ``QueryWorkload`` and
``GroupCalibrateStage.sensitivity_for`` — must never fall below that
maximum.  Node adjacency (one entity and its associations) is checked the
same way, removing one node at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DisclosureConfig
from repro.core.pipeline import GroupCalibrateStage, PipelineContext
from repro.datasets.dblp_like import generate_dblp_like
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.partition import Partition
from repro.grouping.specialization import SpecializationConfig, Specializer
from repro.queries.counts import GroupedAssociationCountQuery, TotalAssociationCountQuery
from repro.queries.cross import CrossGroupCountQuery
from repro.queries.degree import DegreeHistogramQuery
from repro.queries.workload import QueryWorkload

#: Float slack for comparing an analytic bound with a measured norm.
TOLERANCE = 1e-9


def brute_force_sensitivity(
    evaluate: Callable[[BipartiteGraph], np.ndarray],
    graph: BipartiteGraph,
    partition: Partition,
) -> Tuple[float, float]:
    """Largest L1 and L2 change of ``evaluate`` over removing one group."""
    base = evaluate(graph)
    worst_l1 = worst_l2 = 0.0
    for group in partition.groups():
        neighbour = graph.copy()
        neighbour.remove_nodes(group.members)
        change = evaluate(neighbour) - base
        worst_l1 = max(worst_l1, float(np.abs(change).sum()))
        worst_l2 = max(worst_l2, float(np.linalg.norm(change)))
    return worst_l1, worst_l2


def workload_vector(workload: QueryWorkload) -> Callable[[BipartiteGraph], np.ndarray]:
    """The workload's answers as one vector, in query order."""

    def evaluate(graph: BipartiteGraph) -> np.ndarray:
        answers = workload.evaluate(graph)
        return np.concatenate([answers[query.name].values for query in workload])

    return evaluate


def _partition(nodes: List[str], labels: List[int], prefix: str) -> Partition:
    mapping: Dict[str, List[str]] = {}
    for node, label in zip(nodes, labels):
        if label >= 0:
            mapping.setdefault(f"{prefix}{label}", []).append(node)
    return Partition.from_mapping(mapping or {f"{prefix}-empty": [f"{prefix}-ghost"]})


@st.composite
def scenarios(draw):
    """A tiny graph, a protection partition and the query partitions."""
    num_left = draw(st.integers(1, 6))
    num_right = draw(st.integers(1, 6))
    edges = draw(
        st.sets(st.tuples(st.integers(0, num_left - 1), st.integers(0, num_right - 1)))
    )
    graph = BipartiteGraph(name="oracle")
    left = [f"a{i}" for i in range(num_left)]
    right = [f"b{j}" for j in range(num_right)]
    graph.add_left_nodes(left)
    graph.add_right_nodes(right)
    graph.add_associations((left[i], right[j]) for i, j in sorted(edges))

    def labels(count: int, groups: int, allow_uncovered: bool) -> List[int]:
        low = -1 if allow_uncovered else 0
        return draw(st.lists(st.integers(low, groups - 1), min_size=count, max_size=count))

    nodes = left + right
    protection = _partition(nodes, labels(len(nodes), draw(st.integers(1, 5)), False), "g")
    query_partition = _partition(nodes, labels(len(nodes), draw(st.integers(1, 4)), True), "q")
    left_partition = _partition(left, labels(num_left, 3, True), "L")
    right_partition = _partition(right, labels(num_right, 3, True), "R")
    max_degree = draw(st.integers(1, 4))
    return graph, protection, query_partition, left_partition, right_partition, max_degree


def _queries(protection, query_partition, left_partition, right_partition, max_degree):
    return [
        TotalAssociationCountQuery(),
        GroupedAssociationCountQuery(protection),
        GroupedAssociationCountQuery(query_partition),
        DegreeHistogramQuery(side=Side.LEFT, max_degree=max_degree),
        DegreeHistogramQuery(side=Side.RIGHT, max_degree=max_degree),
        CrossGroupCountQuery(left_partition, right_partition),
    ]


def assert_bounds(analytic_l1: float, analytic_l2: float, brute: Tuple[float, float]) -> None:
    brute_l1, brute_l2 = brute
    assert analytic_l1 >= brute_l1 - TOLERANCE, (analytic_l1, brute_l1)
    assert analytic_l2 >= brute_l2 - TOLERANCE, (analytic_l2, brute_l2)


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_query_sensitivities_cover_brute_force(scenario):
    graph, protection, *query_args = scenario
    for query in _queries(protection, *query_args):
        brute = brute_force_sensitivity(lambda g: query.evaluate(g).values, graph, protection)
        assert_bounds(
            query.l1_sensitivity(graph, adjacency="group", partition=protection),
            query.l2_sensitivity(graph, adjacency="group", partition=protection),
            brute,
        )


@settings(max_examples=75, deadline=None)
@given(scenario=scenarios())
def test_workload_and_calibration_cover_brute_force(scenario):
    graph, protection, query_partition, left_partition, right_partition, max_degree = scenario
    # Distinct names: a workload may not repeat one.
    queries = [
        TotalAssociationCountQuery(),
        GroupedAssociationCountQuery(query_partition),
        DegreeHistogramQuery(side=Side.LEFT, max_degree=max_degree),
        CrossGroupCountQuery(left_partition, right_partition),
    ]
    workload = QueryWorkload(queries)
    brute = brute_force_sensitivity(workload_vector(workload), graph, protection)
    assert_bounds(
        workload.l1_sensitivity(graph, adjacency="group", partition=protection),
        workload.l2_sensitivity(graph, adjacency="group", partition=protection),
        brute,
    )

    hierarchy = GroupHierarchy({1: protection}, validate=False)
    calibrated = {}
    for mechanism in ("laplace", "gaussian"):
        context = PipelineContext(
            graph=graph,
            workload=workload,
            hierarchy=hierarchy,
            config=DisclosureConfig(mechanism=mechanism),
        )
        calibrated[mechanism] = GroupCalibrateStage().sensitivity_for(context, 1)
    assert_bounds(calibrated["laplace"], calibrated["gaussian"], brute)


@pytest.fixture(scope="module")
def specialized_dblp():
    graph = generate_dblp_like(num_authors=120, seed=9)
    hierarchy = Specializer(config=SpecializationConfig(num_levels=5), rng=31).build(graph).hierarchy
    return graph, hierarchy


@pytest.mark.parametrize("level", [2, 3, 4])
def test_degree_histogram_covers_brute_force_on_specialized_levels(specialized_dblp, level):
    """The coarse levels of a real specialization, where many authors share
    a degree bin and sqrt(L1) fell short (level 4: 52.69 against 30.07)."""
    graph, hierarchy = specialized_dblp
    partition = hierarchy.partition_at(level)
    query = DegreeHistogramQuery(max_degree=15)
    brute = brute_force_sensitivity(lambda g: query.evaluate(g).values, graph, partition)
    assert_bounds(
        query.l1_sensitivity(graph, adjacency="group", partition=partition),
        query.l2_sensitivity(graph, adjacency="group", partition=partition),
        brute,
    )


# ----------------------------------------------------------------------
# Node adjacency: remove one node and its associations
# ----------------------------------------------------------------------
def brute_force_node_sensitivity(
    evaluate: Callable[[BipartiteGraph], np.ndarray], graph: BipartiteGraph
) -> Tuple[float, float]:
    """Largest L1 and L2 change of ``evaluate`` over removing one node."""
    singletons = Partition.from_mapping({f"n{i}": [node] for i, node in enumerate(graph.nodes())})
    return brute_force_sensitivity(evaluate, graph, singletons)


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_node_sensitivities_cover_brute_force(scenario):
    graph, protection, *query_args = scenario
    for query in _queries(protection, *query_args):
        brute = brute_force_node_sensitivity(lambda g: query.evaluate(g).values, graph)
        assert_bounds(
            query.l1_sensitivity(graph, adjacency="node"),
            query.l2_sensitivity(graph, adjacency="node"),
            brute,
        )


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
def test_degree_histogram_node_bound_covers_a_hub_of_degree_one_neighbours(side):
    """One node with ten degree-1 neighbours: removing it moves all ten from
    bin 1 to bin 0, an L1 change of 20 and an L2 change of 10*sqrt(2),
    whatever ``max_degree`` is."""
    graph = BipartiteGraph(name="hub")
    spokes = [f"s{i}" for i in range(10)]
    if side is Side.LEFT:
        graph.add_left_nodes(spokes)
        graph.add_right_nodes(["hub"])
        graph.add_associations((spoke, "hub") for spoke in spokes)
    else:
        graph.add_right_nodes(spokes)
        graph.add_left_nodes(["hub"])
        graph.add_associations(("hub", spoke) for spoke in spokes)
    query = DegreeHistogramQuery(side=side, max_degree=2)
    brute = brute_force_node_sensitivity(lambda g: query.evaluate(g).values, graph)
    assert brute == pytest.approx((20.0, 10.0 * np.sqrt(2.0)))
    assert_bounds(query.l1_sensitivity(graph, adjacency="node"), query.l2_sensitivity(graph, adjacency="node"), brute)
