"""The incremental-recompile path: mutation log and ``delta_compile``.

The contract under test is *bit-identity*: a view produced by
:meth:`GraphArrays.delta_compile` must be indistinguishable — same arrays,
same dtypes, same id orders, same index maps — from a full
:meth:`GraphArrays.compile` of the mutated graph.  The hypothesis suite
drives random interleavings of node/edge adds and removes through both
paths and compares everything.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
    ValidationError,
)
from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph, Mutation, Side


def assert_views_identical(actual: GraphArrays, expected: GraphArrays) -> None:
    """Every observable of the two compiled views must match bit-for-bit."""
    assert actual.revision == expected.revision
    assert actual.left_ids == expected.left_ids
    assert actual.right_ids == expected.right_ids
    assert actual.left_index == expected.left_index
    assert actual.right_index == expected.right_index
    assert actual.global_index == expected.global_index
    for name in (
        "edge_left",
        "edge_right",
        "left_indptr",
        "left_degrees",
        "right_degrees",
        "degrees",
        "edge_right_global",
    ):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
        assert not got.flags.writeable, name


def assert_rows_match_adjacency(view: GraphArrays, graph: BipartiteGraph) -> None:
    """Each CSR row holds its left node's neighbours, sorted: an oracle that
    does not go through :meth:`GraphArrays.compile`."""
    for row, node in enumerate(view.left_ids):
        expected = sorted(view.right_index[nb] for nb in graph.neighbors(node))
        assert view.neighbor_slice(row).tolist() == expected, node


def small_graph() -> BipartiteGraph:
    graph = BipartiteGraph(name="delta")
    for i in range(4):
        graph.add_left_node(f"L{i}")
    for j in range(5):
        graph.add_right_node(f"R{j}")
    graph.add_associations([("L0", "R0"), ("L0", "R2"), ("L1", "R1"), ("L3", "R4")])
    return graph


class TestMutationLog:
    def test_one_record_per_revision_and_contiguous(self):
        graph = small_graph()
        log = list(graph._mutation_log)
        assert [rec.revision for rec in log] == list(range(1, graph.revision + 1))

    def test_mutations_since_returns_exact_suffix(self):
        graph = small_graph()
        rev = graph.revision
        graph.add_association("L2", "R3")
        graph.remove_association("L0", "R0")
        records = graph.mutations_since(rev)
        assert [rec.op for rec in records] == ["add_edge", "remove_edge"]
        assert records[0].a == "L2" and records[0].b == "R3"

    def test_mutations_since_current_revision_is_empty(self):
        graph = small_graph()
        assert graph.mutations_since(graph.revision) == []

    def test_future_or_negative_revision_is_unrecoverable(self):
        graph = small_graph()
        assert graph.mutations_since(graph.revision + 1) is None
        assert graph.mutations_since(-1) is None

    def test_truncated_log_is_unrecoverable(self):
        graph = BipartiteGraph(mutation_log_limit=4)
        for i in range(10):
            graph.add_left_node(i)
        assert graph.mutations_since(0) is None
        # The last four mutations are still replayable.
        assert len(graph.mutations_since(graph.revision - 4)) == 4

    def test_remove_node_is_one_record_carrying_its_edges(self):
        graph = small_graph()
        rev = graph.revision
        graph.remove_node("L0")
        records = graph.mutations_since(rev)
        assert len(records) == 1
        (record,) = records
        assert record.op == "remove_node" and record.b is Side.LEFT
        assert sorted(record.neighbors) == ["R0", "R2"]

    def test_attribute_merge_logs_nothing(self):
        graph = small_graph()
        rev = graph.revision
        graph.add_left_node("L0", colour="red")
        assert graph.revision == rev and graph.mutations_since(rev) == []

    def test_duplicate_association_logs_nothing(self):
        graph = small_graph()
        rev = graph.revision
        assert graph.add_association("L0", "R0") is False
        assert graph.mutations_since(rev) == []

    def test_log_survives_pickling_without_sharing(self):
        graph = small_graph()
        twin = pickle.loads(pickle.dumps(graph))
        graph.add_association("L2", "R3")
        assert twin.revision == graph.revision - 1
        assert twin.mutations_since(twin.revision) == []
        assert twin._mutation_log.maxlen == graph._mutation_log.maxlen


class TestDeltaCompile:
    def test_edge_only_delta_reuses_index_maps(self):
        graph = small_graph()
        old = graph.arrays()
        graph.add_association("L2", "R3")
        fresh = graph.arrays()
        assert fresh.compiled_incrementally
        assert fresh.left_index is old.left_index
        assert fresh.right_index is old.right_index
        assert_views_identical(fresh, GraphArrays.compile(graph))

    def test_node_delta_rebuilds_index_maps(self):
        graph = small_graph()
        graph.arrays()
        graph.add_left_node("L9")
        graph.add_association("L9", "R0")
        fresh = graph.arrays()
        assert fresh.compiled_incrementally
        assert_views_identical(fresh, GraphArrays.compile(graph))

    def test_right_removal_remaps_clean_rows(self):
        graph = small_graph()
        old = graph.arrays()
        graph.remove_node("R1")
        fresh = GraphArrays.delta_compile(old, graph)
        assert fresh.compiled_incrementally
        assert_views_identical(fresh, GraphArrays.compile(graph))

    def test_fallback_on_truncated_log(self):
        graph = BipartiteGraph(mutation_log_limit=2)
        for i in range(3):
            graph.add_left_node(i)
        graph.add_right_node("r")
        old = graph.arrays()
        for i in range(3):
            graph.add_association(i, "r")
        assert graph.mutations_since(old.revision) is None
        fresh = graph.arrays()
        assert not fresh.compiled_incrementally
        assert_views_identical(fresh, GraphArrays.compile(graph))

    def test_fallback_past_size_threshold(self):
        graph = small_graph()
        old = graph.arrays()
        for i in range(40):
            graph.add_association(f"L{i % 4}", f"R{i % 5}")
            graph.remove_association(f"L{i % 4}", f"R{i % 5}")
        fresh = GraphArrays.delta_compile(old, graph)
        assert not fresh.compiled_incrementally
        assert_views_identical(fresh, GraphArrays.compile(graph))

    def test_same_revision_returns_the_old_view(self):
        graph = small_graph()
        old = graph.arrays()
        assert GraphArrays.delta_compile(old, graph) is old

    def test_stale_view_is_not_fresh_until_recompiled(self):
        graph = small_graph()
        stale = graph.arrays()
        graph.add_association("L2", "R3")
        assert not stale.is_fresh(graph)
        assert graph.arrays().is_fresh(graph)


# Random mutation programs for the hypothesis parity suite.  Each step is a
# (kind, payload) pair decoded against the *current* graph state, so removals
# target live nodes/edges and adds collide with existing ids often.
steps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=11)),
    min_size=1,
    max_size=30,
)


def apply_step(graph: BipartiteGraph, kind: int, payload: int) -> None:
    lefts = list(graph.left_nodes())
    rights = list(graph.right_nodes())
    if kind == 0:
        graph.add_left_node(f"L{payload}")
    elif kind == 1:
        graph.add_right_node(f"R{payload}")
    elif kind == 2 and lefts and rights:
        graph.add_association(lefts[payload % len(lefts)], rights[payload % len(rights)])
    elif kind == 3:
        edges = sorted(graph.associations())
        if edges:
            graph.remove_association(*edges[payload % len(edges)])
    elif kind == 4 and lefts:
        graph.remove_node(lefts[payload % len(lefts)])
    elif kind == 5 and rights:
        graph.remove_node(rights[payload % len(rights)])


class TestDeltaCompileParity:
    @given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40), program=steps)
    @settings(max_examples=120, deadline=None)
    def test_delta_compile_matches_full_compile(self, pairs, program):
        graph = BipartiteGraph(name="parity")
        for left, right in pairs:
            graph.add_association(f"L{left}", f"R{right}", auto_add=True)
        old = GraphArrays.compile(graph)
        for kind, payload in program:
            apply_step(graph, kind, payload)
        # max_fraction high enough that the delta path always runs, so the
        # parity claim is exercised even for large deltas.
        delta = GraphArrays.delta_compile(old, graph, max_fraction=1e9)
        expected = GraphArrays.compile(graph)
        if graph.revision != old.revision:
            assert delta.compiled_incrementally
        assert_views_identical(delta, expected)
        graph.validate()

    @given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40), program=steps)
    @settings(max_examples=60, deadline=None)
    def test_arrays_accessor_stays_fresh_through_mutations(self, pairs, program):
        graph = BipartiteGraph(name="accessor")
        for left, right in pairs:
            graph.add_association(f"L{left}", f"R{right}", auto_add=True)
        graph.arrays()
        for kind, payload in program:
            apply_step(graph, kind, payload)
        assert_views_identical(graph.arrays(), GraphArrays.compile(graph))


# Wide edge-only deltas: one delta dirties dozens of left rows, empties some
# of them to zero edges and gives isolated left nodes their first edge.
wide_graphs = st.lists(st.tuples(st.integers(0, 59), st.integers(0, 39)), min_size=1, max_size=250)
wide_deltas = st.tuples(
    st.lists(st.integers(0, 59), max_size=10),  # rows emptied to zero edges
    st.lists(st.tuples(st.integers(0, 79), st.integers(0, 39)), min_size=30, max_size=80),  # additions
    st.lists(st.integers(min_value=0), max_size=40),  # removals, as edge positions
    st.sampled_from([None, "add-left", "remove-right"]),  # an optional node mutation
)


def wide_graph(pairs) -> BipartiteGraph:
    """80 left nodes (20 always isolated) and 40 right nodes."""
    graph = BipartiteGraph(name="wide")
    for i in range(80):
        graph.add_left_node(f"L{i}")
    for j in range(40):
        graph.add_right_node(f"R{j}")
    graph.add_associations([(f"L{left}", f"R{right}") for left, right in pairs])
    return graph


class TestWideDeltaCompileParity:
    @given(pairs=wide_graphs, delta=wide_deltas)
    @settings(max_examples=120, deadline=None)
    def test_wide_delta_matches_full_compile(self, pairs, delta):
        emptied, additions, removals, node_op = delta
        graph = wide_graph(pairs)
        old = GraphArrays.compile(graph)
        for row in emptied:
            for right in list(graph.neighbors(f"L{row}")):
                graph.remove_association(f"L{row}", right)
        for left, right in additions:
            graph.add_association(f"L{left}", f"R{right}")
        for position in removals:
            edges = sorted(graph.associations())
            if edges:
                graph.remove_association(*edges[position % len(edges)])
        if node_op == "add-left":
            graph.add_association("L-new", "R0", auto_add=True)
        elif node_op == "remove-right":
            graph.remove_node("R1")
        delta_view = GraphArrays.delta_compile(old, graph, max_fraction=1e9)
        if graph.revision != old.revision:
            assert delta_view.compiled_incrementally
            # An edge-only delta keeps the old id spaces (the splice path).
            assert (delta_view.left_index is old.left_index) == (node_op is None)
        assert_views_identical(delta_view, GraphArrays.compile(graph))
        assert_rows_match_adjacency(delta_view, graph)

    def test_refresh_sized_insert_then_removal(self):
        """The refresh benchmark's shape: a 1,000-author graph, a 50-edge
        insert, then its removal; each delta equals a full compile."""
        from repro.datasets.dblp_like import generate_dblp_like

        graph = generate_dblp_like(num_authors=1000, seed=3)
        rng = np.random.default_rng(3)
        left = sorted(graph.left_nodes(), key=str)
        right = sorted(graph.right_nodes(), key=str)
        batch = []
        while len(batch) < 50:
            pair = (left[rng.integers(len(left))], right[rng.integers(len(right))])
            if not graph.has_association(*pair) and pair not in batch:
                batch.append(pair)
        base = GraphArrays.compile(graph)
        for pair in batch:
            graph.add_association(*pair)
        inserted = GraphArrays.delta_compile(base, graph)
        assert inserted.compiled_incrementally
        assert_views_identical(inserted, GraphArrays.compile(graph))
        assert_rows_match_adjacency(inserted, graph)
        for pair in batch:
            graph.remove_association(*pair)
        removed = GraphArrays.delta_compile(inserted, graph)
        assert removed.compiled_incrementally
        assert_views_identical(removed, GraphArrays.compile(graph))
        for name in ("edge_left", "edge_right", "left_indptr", "left_degrees", "right_degrees"):
            assert np.array_equal(getattr(removed, name), getattr(base, name)), name


class TestCopyIsolation:
    def test_copy_shares_no_arrays_or_log(self):
        graph = small_graph()
        original_view = graph.arrays()
        clone = graph.copy()
        assert clone._arrays is None
        assert clone._mutation_log is not graph._mutation_log

        clone.add_association("L2", "R3")
        # The original's compiled view and log are untouched by the clone.
        assert graph.arrays() is original_view
        assert graph.has_association("L2", "R3") is False

        graph.remove_node("L0")
        assert clone.has_node("L0")
        assert_views_identical(clone.arrays(), GraphArrays.compile(clone))

    def test_copy_preserves_log_limit(self):
        graph = BipartiteGraph(mutation_log_limit=7)
        graph.add_left_node("a")
        assert graph.copy()._mutation_log.maxlen == 7

    def test_pickle_round_trip_drops_arrays_but_not_structure(self):
        graph = small_graph()
        graph.arrays()
        twin = pickle.loads(pickle.dumps(graph))
        assert twin._arrays is None
        assert sorted(twin.associations()) == sorted(graph.associations())
        assert_views_identical(twin.arrays(), GraphArrays.compile(twin))


class TestUnifiedMutationErrors:
    """Every graph-mutation error is a ValidationError (satellite task)."""

    def test_remove_missing_node_is_a_validation_error(self):
        graph = small_graph()
        with pytest.raises(ValidationError):
            graph.remove_node("ghost")
        with pytest.raises(NodeNotFoundError):
            graph.remove_node("ghost")

    def test_remove_missing_association_is_a_validation_error(self):
        graph = small_graph()
        with pytest.raises(ValidationError):
            graph.remove_association("L0", "R4")
        with pytest.raises(EdgeNotFoundError):
            graph.remove_association("ghost", "R0")

    def test_duplicate_node_is_a_validation_error(self):
        graph = small_graph()
        with pytest.raises(ValidationError):
            graph.add_right_node("L0")
        with pytest.raises(DuplicateNodeError):
            graph.add_left_node("R0")

    def test_failed_mutations_log_nothing(self):
        graph = small_graph()
        rev = graph.revision
        for mutation in (
            lambda: graph.remove_node("ghost"),
            lambda: graph.remove_association("L0", "R4"),
            lambda: graph.add_right_node("L0"),
            lambda: graph.add_association("ghost", "R0"),
        ):
            with pytest.raises(ValidationError):
                mutation()
        assert graph.revision == rev
        assert graph.mutations_since(rev) == []

    def test_mutation_record_shape(self):
        graph = BipartiteGraph()
        graph.add_left_node("a")
        (record,) = graph.mutations_since(0)
        assert record == Mutation(1, "add_node", "a", Side.LEFT, ())


class TestPartitionCodesAcrossDeltas:
    """``partition_codes`` over a specialized hierarchy's node table equals
    the by-node lookup path after every kind of mutation; an edge-only delta
    keeps its base view's position map instead of rebuilding it."""

    @staticmethod
    def lookup_codes(arrays: GraphArrays, partition) -> np.ndarray:
        positions = partition.table.positions(arrays.left_ids + arrays.right_ids)
        return np.where(positions >= 0, partition.labels[np.maximum(positions, 0)], -1)

    @pytest.mark.parametrize("mutation", ["edges", "add-node", "remove-node"])
    def test_codes_equal_the_lookup_path(self, mutation):
        from repro.datasets.dblp_like import generate_dblp_like
        from repro.grouping.specialization import SpecializationConfig, Specializer

        graph = generate_dblp_like(num_authors=40, seed=2)
        base = graph.arrays()
        hierarchy = Specializer(SpecializationConfig(num_levels=4), rng=1).build(graph).hierarchy
        table = hierarchy.partition_at(1).table
        assert np.array_equal(base._table_positions[table], np.arange(base.num_nodes))
        left, right = sorted(graph.left_nodes(), key=str), sorted(graph.right_nodes(), key=str)
        if mutation == "edges":
            pair = next((a, b) for a in left for b in right if not graph.has_association(a, b))
            graph.add_association(*pair)
            graph.remove_association(left[0], next(iter(graph.neighbors(left[0]))))
        elif mutation == "add-node":
            graph.add_association("new-author", right[0], auto_add=True)
        else:
            graph.remove_node(right[1])
        arrays = graph.arrays()
        assert arrays is not base and arrays.compiled_incrementally
        assert (arrays._table_positions.get(table) is base._table_positions[table]) == (mutation == "edges")
        for level in hierarchy.level_indices():
            partition = hierarchy.partition_at(level)
            assert np.array_equal(arrays.partition_codes(partition), self.lookup_codes(arrays, partition))
