"""Compiled array view of a :class:`~repro.graphs.bipartite.BipartiteGraph`.

The dict-of-set adjacency of :class:`BipartiteGraph` is the right structure
for incremental mutation, but every aggregate query over it pays an
interpreter-loop cost per node or per edge.  :class:`GraphArrays` compiles
the graph once into contiguous NumPy arrays — CSR-style edge arrays, dense
node index maps and per-node degree vectors — so that whole workloads can be
answered with ``np.bincount``/segment-sum instead of per-group set iteration.

Layout
------
* Left nodes receive local indices ``0 .. num_left - 1`` in the graph's
  insertion order; right nodes receive ``0 .. num_right - 1`` likewise.
  The *global* index space places the left block first: a right node with
  local index ``j`` has global index ``num_left + j``.
* Edges are stored in COO form (``edge_left``/``edge_right``, one entry per
  association) sorted by ``(left index, right index)``, together with a CSR
  row pointer ``left_indptr`` over the left side, so both flat per-edge
  scans and per-node neighbour slices are O(1) to obtain.

Staleness
---------
A compiled view is only valid for the graph revision it was built from.
:meth:`GraphArrays.is_fresh` compares the stored revision against the
graph's mutation counter; :meth:`BipartiteGraph.arrays` recompiles
automatically whenever the graph has mutated since the last compile, so
callers can never observe stale arrays (see ``tests/test_graphs_arrays.py``).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.bipartite import BipartiteGraph
    from repro.grouping.partition import NodeTable, Partition

Node = Hashable

#: Sentinel group code for nodes not covered by a partition.
NO_GROUP = -1

#: :meth:`GraphArrays.delta_compile` falls back to a full compile when the
#: mutation delta exceeds this fraction of the old view's edge count ...
DELTA_COMPILE_MAX_FRACTION = 0.25

#: ... with this absolute floor, so tiny graphs still take the delta path.
DELTA_COMPILE_MIN_THRESHOLD = 16


def _sorted_columns(neighbour_sets, rows: np.ndarray, right_index: Dict[Node, int]) -> np.ndarray:
    """Right-local columns of ``neighbour_sets``, by ascending row, each row sorted.

    ``rows`` holds each column's row: the sets' rows repeated by their
    sizes.  One ``np.fromiter`` reads every set and one ``lexsort`` (its
    last key is the primary one) orders the lot.
    """
    cols = np.fromiter(
        (right_index[nb] for neighbours in neighbour_sets for nb in neighbours),
        dtype=np.int64,
        count=len(rows),
    )
    return cols[np.lexsort((cols, rows))]


def _recount_right_degrees(edge_right: np.ndarray, num_right: int) -> np.ndarray:
    """Right-side degree vector from the column array."""
    return np.bincount(edge_right, minlength=num_right).astype(np.int64, copy=False)


class GraphArrays:
    """Immutable array view of a bipartite graph at one mutation revision.

    Build with :meth:`compile` (or, preferably, via the caching
    :meth:`BipartiteGraph.arrays` accessor).  All arrays are read-only.
    """

    def __init__(
        self,
        revision: int,
        left_ids: List[Node],
        right_ids: List[Node],
        edge_left: np.ndarray,
        edge_right: np.ndarray,
        left_indptr: np.ndarray,
        left_degrees: np.ndarray,
        right_degrees: np.ndarray,
        graph: Optional["BipartiteGraph"] = None,
        left_index: Optional[Dict[Node, int]] = None,
        right_index: Optional[Dict[Node, int]] = None,
        global_index: Optional[Dict[Node, int]] = None,
    ):
        self.revision = int(revision)
        self.left_ids = left_ids
        self.right_ids = right_ids
        # The index dicts may be passed in precomputed (the delta-compile
        # fast path reuses the previous view's maps when the node sets did
        # not change); they are treated as immutable from here on.
        self.left_index: Dict[Node, int] = (
            left_index if left_index is not None else {node: i for i, node in enumerate(left_ids)}
        )
        self.right_index: Dict[Node, int] = (
            right_index if right_index is not None else {node: j for j, node in enumerate(right_ids)}
        )
        offset = len(left_ids)
        if global_index is not None:
            self.global_index: Dict[Node, int] = global_index
        else:
            self.global_index = dict(self.left_index)
            for node, j in self.right_index.items():
                self.global_index[node] = offset + j
        self.edge_left = edge_left
        self.edge_right = edge_right
        self.left_indptr = left_indptr
        self.left_degrees = left_degrees
        self.right_degrees = right_degrees
        #: Per-node degrees in global index order (left block, then right block).
        self.degrees = np.concatenate([left_degrees, right_degrees]) if offset or len(right_ids) else np.zeros(0, dtype=np.int64)
        #: Per-edge endpoint indices in the *global* index space.
        self.edge_left_global = edge_left
        self.edge_right_global = edge_right + offset
        for array in (
            self.edge_left,
            self.edge_right,
            self.left_indptr,
            self.left_degrees,
            self.right_degrees,
            self.degrees,
            self.edge_right_global,
        ):
            array.setflags(write=False)
        self._graph_ref = weakref.ref(graph) if graph is not None else None
        # Per-partition group codes and per-node-table positions; weak keys
        # so dropping a Partition or its hierarchy releases them.
        self._partition_codes: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._table_positions: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        #: ``True`` when this view was produced by :meth:`delta_compile`'s
        #: incremental patch path rather than a full :meth:`compile`.
        self.compiled_incrementally = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, graph: "BipartiteGraph") -> "GraphArrays":
        """Compile ``graph`` into a fresh array view."""
        left_ids = list(graph.left_nodes())
        right_ids = list(graph.right_nodes())
        right_index = {node: j for j, node in enumerate(right_ids)}

        adjacency = graph._adj_left  # noqa: SLF001 - same-package fast path
        neighbour_sets = [adjacency[node] for node in left_ids]
        counts = np.fromiter(map(len, neighbour_sets), dtype=np.int64, count=len(left_ids))
        left_indptr = np.zeros(len(left_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=left_indptr[1:])
        edge_left = np.repeat(np.arange(len(left_ids), dtype=np.int64), counts)
        edge_right = _sorted_columns(neighbour_sets, edge_left, right_index)
        right_degrees = _recount_right_degrees(edge_right, len(right_ids))
        return cls(
            revision=graph.revision,
            left_ids=left_ids,
            right_ids=right_ids,
            edge_left=edge_left,
            edge_right=edge_right,
            left_indptr=left_indptr,
            left_degrees=counts,
            right_degrees=right_degrees,
            graph=graph,
        )

    @classmethod
    def delta_compile(
        cls,
        old: "GraphArrays",
        graph: "BipartiteGraph",
        max_fraction: float = DELTA_COMPILE_MAX_FRACTION,
    ) -> "GraphArrays":
        """Recompile ``graph`` incrementally from a stale view ``old``.

        Replays the graph's mutation log since ``old.revision`` and patches
        only what the mutations touched: the rows of left nodes whose
        adjacency changed are recomputed from the dict adjacency exactly as
        :meth:`compile` would, while every untouched row's slice of
        ``edge_right`` is copied (and, after right-node removals, index-
        remapped) wholesale at C speed.  When no node was added or removed,
        the node id lists and index dicts of ``old`` are reused outright, so
        an edge-only delta skips the O(nodes) dict rebuilds entirely.

        The result is **bit-identical** to ``GraphArrays.compile(graph)`` —
        same arrays, dtypes, id orders and index maps — which the hypothesis
        suite in ``tests/test_graphs_delta.py`` asserts over random mutation
        sequences.  Falls back to a full :meth:`compile` when the log no
        longer covers ``old.revision`` (truncation, foreign revision) or the
        delta exceeds ``max_fraction`` of the old edge count: past that
        point patching costs more than rebuilding.
        """
        records = graph.mutations_since(old.revision)
        if records is None:
            return cls.compile(graph)
        if not records:
            return old
        if len(records) > max(DELTA_COMPILE_MIN_THRESHOLD, int(max_fraction * old.num_edges)):
            return cls.compile(graph)

        from repro.graphs.bipartite import Side

        adjacency = graph._adj_left  # noqa: SLF001 - same-package fast path
        dirty_left = set()
        node_ops = False
        right_removed = False
        for rec in records:
            if rec.op == "add_edge":
                dirty_left.add(rec.a)
            elif rec.op == "remove_edge":
                dirty_left.add(rec.a)
            elif rec.op == "add_node":
                node_ops = True
                if rec.b is Side.LEFT:
                    dirty_left.add(rec.a)
            elif rec.op == "remove_node":
                node_ops = True
                if rec.b is Side.LEFT:
                    dirty_left.discard(rec.a)
                else:
                    right_removed = True
                    # The edges that died with the node dirty their left
                    # endpoints, which is also what guarantees no clean row
                    # still references a removed (or re-added) right index.
                    dirty_left.update(rec.neighbors)
        dirty_left = {n for n in dirty_left if n in graph._left}  # noqa: SLF001

        if node_ops:
            arrays = cls._delta_general(old, graph, adjacency, dirty_left, right_removed)
        else:
            arrays = cls._delta_edges_only(old, graph, adjacency, dirty_left)
        arrays.compiled_incrementally = True
        return arrays

    @classmethod
    def _delta_edges_only(cls, old, graph, adjacency, dirty_left):
        """Delta path when no node was added or removed: same id spaces."""
        right_index = old.right_index
        dirty_rows = np.fromiter(
            (old.left_index[n] for n in dirty_left), dtype=np.int64, count=len(dirty_left)
        )
        neighbour_sets = [adjacency[old.left_ids[row]] for row in dirty_rows.tolist()]
        dirty_counts = np.fromiter(map(len, neighbour_sets), dtype=np.int64, count=len(neighbour_sets))
        counts = old.left_degrees.copy()
        counts[dirty_rows] = dirty_counts

        left_indptr = np.zeros(len(old.left_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=left_indptr[1:])

        # Splice: the clean rows' old slices keep their order, and the dirty
        # rows' slots take their columns recomputed exactly as compile does.
        is_dirty = np.zeros(len(old.left_ids), dtype=bool)
        is_dirty[dirty_rows] = True
        dirty_slots = np.repeat(is_dirty, counts)
        edge_right = np.empty(int(left_indptr[-1]), dtype=np.int64)
        edge_right[dirty_slots] = _sorted_columns(
            neighbour_sets, np.repeat(dirty_rows, dirty_counts), right_index
        )
        edge_right[~dirty_slots] = old.edge_right[~np.repeat(is_dirty, old.left_degrees)]

        edge_left = np.repeat(np.arange(len(old.left_ids), dtype=np.int64), counts)
        right_degrees = _recount_right_degrees(edge_right, len(old.right_ids))
        arrays = cls(
            revision=graph.revision,
            left_ids=old.left_ids,
            right_ids=old.right_ids,
            edge_left=edge_left,
            edge_right=edge_right,
            left_indptr=left_indptr,
            left_degrees=counts,
            right_degrees=right_degrees,
            graph=graph,
            left_index=old.left_index,
            right_index=right_index,
            global_index=old.global_index,
        )
        # Same node order: every table position and partition code still holds.
        arrays._table_positions.update(old._table_positions)
        arrays._partition_codes.update(old._partition_codes)
        return arrays

    @classmethod
    def _delta_general(cls, old, graph, adjacency, dirty_left, right_removed):
        """Delta path after node mutations: re-derive id spaces, keep rows."""
        left_ids = list(graph.left_nodes())
        right_ids = list(graph.right_nodes())
        right_index = {node: j for j, node in enumerate(right_ids)}

        # Right-node removals shift the surviving right-local indices; the
        # shift preserves relative order (dict deletion keeps insertion
        # order), so remapping a sorted clean row keeps it sorted.  Rows that
        # referenced a removed (or removed-and-re-added) right node are dirty
        # by construction and recomputed instead.
        remap = None
        if right_removed:
            remap = np.fromiter(
                (right_index.get(node, -1) for node in old.right_ids),
                dtype=np.int64,
                count=len(old.right_ids),
            )

        old_left_index = old.left_index
        old_pos = np.fromiter(
            (
                -1 if node in dirty_left else old_left_index.get(node, -1)
                for node in left_ids
            ),
            dtype=np.int64,
            count=len(left_ids),
        )
        counts = np.fromiter(
            (len(adjacency[node]) for node in left_ids), dtype=np.int64, count=len(left_ids)
        )
        left_indptr = np.zeros(len(left_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=left_indptr[1:])
        edge_right = np.empty(int(left_indptr[-1]), dtype=np.int64)

        clean = old_pos >= 0
        lens = counts[clean]
        if lens.size and int(lens.sum()):
            total_clean = int(lens.sum())
            ends = np.cumsum(lens)
            # Per-element offset within its own row: 0,1,...,len-1 per row.
            offsets = np.arange(total_clean, dtype=np.int64) - np.repeat(ends - lens, lens)
            src = np.repeat(old.left_indptr[old_pos[clean]], lens) + offsets
            dst = np.repeat(left_indptr[:-1][clean], lens) + offsets
            values = old.edge_right[src]
            if remap is not None:
                values = remap[values]
            edge_right[dst] = values

        dirty_rows = np.flatnonzero(~clean)
        edge_right[np.repeat(~clean, counts)] = _sorted_columns(
            [adjacency[left_ids[row]] for row in dirty_rows.tolist()],
            np.repeat(dirty_rows, counts[dirty_rows]),
            right_index,
        )

        edge_left = np.repeat(np.arange(len(left_ids), dtype=np.int64), counts)
        right_degrees = _recount_right_degrees(edge_right, len(right_ids))
        return cls(
            revision=graph.revision,
            left_ids=left_ids,
            right_ids=right_ids,
            edge_left=edge_left,
            edge_right=edge_right,
            left_indptr=left_indptr,
            left_degrees=counts,
            right_degrees=right_degrees,
            graph=graph,
            right_index=right_index,
        )

    # ------------------------------------------------------------------
    # Shape and staleness
    # ------------------------------------------------------------------
    @property
    def num_left(self) -> int:
        """Number of left-side nodes."""
        return len(self.left_ids)

    @property
    def num_right(self) -> int:
        """Number of right-side nodes."""
        return len(self.right_ids)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes across both sides."""
        return len(self.left_ids) + len(self.right_ids)

    @property
    def num_edges(self) -> int:
        """Number of associations."""
        return int(self.edge_left.size)

    def is_fresh(self, graph: Optional["BipartiteGraph"] = None) -> bool:
        """``True`` when the view still matches the graph's mutation counter."""
        if graph is None and self._graph_ref is not None:
            graph = self._graph_ref()
        if graph is None:
            return False
        return self.revision == graph.revision

    def neighbor_slice(self, left_local_index: int) -> np.ndarray:
        """Sorted right-side local indices adjacent to one left node."""
        start, stop = self.left_indptr[left_local_index], self.left_indptr[left_local_index + 1]
        return self.edge_right[start:stop]

    # ------------------------------------------------------------------
    # Partition codes
    # ------------------------------------------------------------------
    def node_table(self) -> "NodeTable":
        """A :class:`~repro.grouping.partition.NodeTable` of this view's nodes
        in its own order (left block, then right block).

        Its positions are known without a lookup, so :meth:`partition_codes`
        gathers the labels of partitions over it directly.
        """
        from repro.grouping.partition import NodeTable

        table = NodeTable(self.left_ids + self.right_ids)
        self._table_positions[table] = np.arange(self.num_nodes, dtype=np.int64)
        return table

    def partition_codes(self, partition: "Partition", scope: str = "global") -> np.ndarray:
        """Per-node group codes for ``partition`` over one index space.

        Returns an ``int64`` array of length ``num_nodes`` (global scope) or
        the side length, where entry ``i`` is the position of node ``i``'s
        group in ``partition.groups()`` order, or :data:`NO_GROUP` for nodes
        the partition does not cover.  The codes are the partition's labels
        gathered through this view's positions in the partition's node table;
        positions are memoised per table (so the levels of one hierarchy
        share them) and codes per partition, both under weak keys.  A view
        from an edge-only :meth:`delta_compile` inherits both memos, since
        its node order is its base view's.
        """
        codes = self._partition_codes.get(partition)
        if codes is None:
            positions = self._table_positions.get(partition.table)
            if positions is None:
                positions = partition.table.positions(self.left_ids + self.right_ids)
                self._table_positions[partition.table] = positions
            codes = np.full(self.num_nodes, NO_GROUP, dtype=np.int64)
            covered = positions >= 0
            codes[covered] = partition.labels[positions[covered]]
            codes.setflags(write=False)
            self._partition_codes[partition] = codes
        return {"global": codes, "left": codes[: self.num_left], "right": codes[self.num_left :]}[scope]

    # ------------------------------------------------------------------
    # Batched aggregate counts (the vectorized query kernels)
    # ------------------------------------------------------------------
    def induced_counts(self, partition: "Partition") -> np.ndarray:
        """Per-group counts of associations with *both* endpoints in the group.

        The vectorized equivalent of calling
        :func:`~repro.graphs.subgraphs.subgraph_association_count` once per
        group: one ``np.bincount`` over the edge list.
        """
        codes = self.partition_codes(partition, scope="global")
        num_groups = partition.num_groups()
        if not self.num_edges or not num_groups:
            return np.zeros(num_groups, dtype=np.int64)
        lcodes = codes[self.edge_left_global]
        rcodes = codes[self.edge_right_global]
        mask = (lcodes == rcodes) & (lcodes != NO_GROUP)
        return np.bincount(lcodes[mask], minlength=num_groups)

    def incident_counts(self, partition: "Partition") -> np.ndarray:
        """Per-group counts of associations with *at least one* endpoint in the group.

        This is the quantity driving the group-level sensitivity of the
        association-count query.  An edge whose endpoints fall in two
        different groups is counted once for each; an edge inside one group
        is counted once.
        """
        codes = self.partition_codes(partition, scope="global")
        num_groups = partition.num_groups()
        if not self.num_edges or not num_groups:
            return np.zeros(num_groups, dtype=np.int64)
        lcodes = codes[self.edge_left_global]
        rcodes = codes[self.edge_right_global]
        counts = np.bincount(lcodes[lcodes != NO_GROUP], minlength=num_groups)
        counts += np.bincount(rcodes[rcodes != NO_GROUP], minlength=num_groups)
        both_same = (lcodes == rcodes) & (lcodes != NO_GROUP)
        counts -= np.bincount(lcodes[both_same], minlength=num_groups)
        return counts

    def cross_group_matrix(self, left_partition: "Partition", right_partition: "Partition") -> np.ndarray:
        """Association counts between every (left group, right group) pair.

        Rows follow ``left_partition.groups()`` order, columns
        ``right_partition.groups()`` order; edges with an endpoint outside
        the respective partition are ignored — exactly the semantics of the
        reference :meth:`CrossGroupCountQuery.true_matrix`.
        """
        num_rows = left_partition.num_groups()
        num_cols = right_partition.num_groups()
        if not self.num_edges or not num_rows or not num_cols:
            return np.zeros((num_rows, num_cols), dtype=np.float64)
        lcodes = self.partition_codes(left_partition, scope="left")[self.edge_left]
        rcodes = self.partition_codes(right_partition, scope="right")[self.edge_right]
        mask = (lcodes != NO_GROUP) & (rcodes != NO_GROUP)
        flat = lcodes[mask] * num_cols + rcodes[mask]
        matrix = np.bincount(flat, minlength=num_rows * num_cols).astype(np.float64)
        return matrix.reshape(num_rows, num_cols)

    def degree_histogram(self, side, max_degree: int) -> np.ndarray:
        """Clamped degree histogram of one side (``max_degree + 1`` bins)."""
        from repro.graphs.bipartite import Side

        degrees = self.left_degrees if Side(side) is Side.LEFT else self.right_degrees
        clamped = np.minimum(degrees, max_degree)
        return np.bincount(clamped, minlength=max_degree + 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphArrays(revision={self.revision}, left={self.num_left}, "
            f"right={self.num_right}, edges={self.num_edges})"
        )
