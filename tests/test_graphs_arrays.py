"""Tests for the compiled :class:`GraphArrays` view and its cache invalidation.

The stale-cache hazard is the critical property here: a compiled view must
never be served after the graph mutates.  Every structural mutation bumps
``BipartiteGraph.revision`` and stales the cached view, so ``graph.arrays()``
recompiles and the old view's ``is_fresh()`` reports ``False``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph, Side
from repro.grouping.partition import Partition


def test_compile_layout(tiny_graph):
    arrays = GraphArrays.compile(tiny_graph)
    assert arrays.num_left == 4 and arrays.num_right == 4
    assert arrays.num_nodes == 8 and arrays.num_edges == 5
    # CSR row pointers cover every left node; degrees agree with the graph.
    assert arrays.left_indptr.shape == (5,)
    assert int(arrays.left_indptr[-1]) == 5
    for node in tiny_graph.left_nodes():
        assert int(arrays.left_degrees[arrays.left_index[node]]) == tiny_graph.degree(node)
    for node in tiny_graph.right_nodes():
        assert int(arrays.right_degrees[arrays.right_index[node]]) == tiny_graph.degree(node)
    # Edge arrays reproduce the adjacency exactly.
    edges = {
        (arrays.left_ids[i], arrays.right_ids[j])
        for i, j in zip(arrays.edge_left.tolist(), arrays.edge_right.tolist())
    }
    assert edges == set(tiny_graph.associations())


def test_neighbor_slice_is_sorted(tiny_graph):
    arrays = tiny_graph.arrays()
    for node in tiny_graph.left_nodes():
        cols = arrays.neighbor_slice(arrays.left_index[node])
        assert list(cols) == sorted(cols.tolist())
        neighbours = {arrays.right_ids[j] for j in cols.tolist()}
        assert neighbours == tiny_graph.neighbors(node)


def test_empty_graph_compiles():
    graph = BipartiteGraph(name="empty")
    arrays = graph.arrays()
    assert arrays.num_nodes == 0 and arrays.num_edges == 0
    assert arrays.degrees.size == 0


def test_arrays_are_read_only(tiny_graph):
    arrays = tiny_graph.arrays()
    with pytest.raises(ValueError):
        arrays.edge_left[0] = 99
    with pytest.raises(ValueError):
        arrays.degrees[0] = 99


def test_arrays_cached_until_mutation(tiny_graph):
    first = tiny_graph.arrays()
    assert tiny_graph.arrays() is first  # cache hit, no recompile
    assert first.is_fresh(tiny_graph)


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda g: g.add_left_node("newbie"), id="add_node"),
        pytest.param(lambda g: g.remove_node("bob"), id="remove_node"),
        pytest.param(lambda g: g.add_association("carol", "statin"), id="add_association"),
        pytest.param(lambda g: g.remove_association("bob", "insulin"), id="remove_association"),
        pytest.param(lambda g: g.remove_nodes(["bob", "insulin"]), id="remove_nodes"),
    ],
)
def test_mutation_never_serves_stale_arrays(tiny_graph, mutate):
    stale = tiny_graph.arrays()
    revision = tiny_graph.revision
    mutate(tiny_graph)
    assert tiny_graph.revision > revision
    assert not stale.is_fresh(tiny_graph)
    fresh = tiny_graph.arrays()
    assert fresh is not stale
    assert fresh.num_edges == tiny_graph.num_associations()
    assert fresh.num_nodes == tiny_graph.num_nodes()


def test_noop_mutations_keep_cache(tiny_graph):
    arrays = tiny_graph.arrays()
    # Re-adding an existing association / node attribute merge is structural
    # no-op and must not invalidate the compiled view.
    assert tiny_graph.add_association("bob", "insulin") is False
    tiny_graph.add_left_node("bob", specialty="endocrinology")
    assert arrays.is_fresh(tiny_graph)
    assert tiny_graph.arrays() is arrays


def test_copy_does_not_share_cache(tiny_graph):
    original = tiny_graph.arrays()
    clone = tiny_graph.copy()
    clone.add_association("carol", "aspirin")
    assert original.is_fresh(tiny_graph)
    assert tiny_graph.arrays() is original
    assert clone.arrays().num_edges == original.num_edges + 1


def test_partition_codes_and_kernels(tiny_graph, tiny_partition):
    arrays = tiny_graph.arrays()
    codes = arrays.partition_codes(tiny_partition)
    assert codes.shape == (arrays.num_nodes,)
    # Memoised per (partition, scope).
    assert arrays.partition_codes(tiny_partition) is codes
    # buyers/drugs split puts every edge across groups: no induced edges,
    # every edge incident to both groups.
    induced = arrays.induced_counts(tiny_partition)
    assert induced.tolist() == [0, 0]
    incident = arrays.incident_counts(tiny_partition)
    assert incident.tolist() == [5, 5]


def test_cross_group_matrix_matches_manual_count(tiny_graph):
    arrays = tiny_graph.arrays()
    left = Partition.from_mapping({"bc": ["bob", "carol"], "de": ["dave", "erin"]})
    right = Partition.from_mapping({"ia": ["insulin", "aspirin"], "sz": ["statin", "zoloft"]})
    matrix = arrays.cross_group_matrix(left, right)
    assert matrix.tolist() == [[3.0, 0.0], [1.0, 1.0]]


def test_degree_histogram_kernel(tiny_graph):
    arrays = tiny_graph.arrays()
    histogram = arrays.degree_histogram(Side.LEFT, max_degree=1)
    # degrees: bob=2 (clamped to 1), carol=1, dave=2 (clamped), erin=0.
    assert histogram.tolist() == [1, 3]
