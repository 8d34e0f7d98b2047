"""The :class:`BipartiteGraph` data structure.

Design notes
------------
The structure is a thin, explicit adjacency representation:

* two node dictionaries (``left``/``right``), each mapping a hashable node id
  to an attribute dictionary;
* two adjacency dictionaries mapping a node id to the ``set`` of its
  neighbours on the opposite side.

Both directions are stored so that induced-subgraph extraction and degree
queries are symmetric and O(degree).  Nodes may exist with no associations
(an author with no papers still counts toward group sizes), which matters for
the group-privacy semantics: a *group* is a set of nodes, and removing a
group removes the nodes **and** every association incident to them.

The class is deliberately free of any privacy logic — it is the substrate the
disclosure pipeline operates on.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import (
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
    ValidationError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.arrays import GraphArrays

Node = Hashable
Association = Tuple[Node, Node]


#: Default bound on the in-memory mutation log.  Past this many structural
#: mutations without a recompile, :meth:`BipartiteGraph.mutations_since` can
#: no longer reconstruct the delta and incremental consumers fall back to a
#: full rebuild — exactly what they would do anyway once the delta stops
#: being "small".
DEFAULT_MUTATION_LOG_LIMIT = 4096


class Mutation(NamedTuple):
    """One structural mutation, keyed by the revision it produced.

    ``op`` is one of ``"add_node"``, ``"remove_node"``, ``"add_edge"``,
    ``"remove_edge"``.  For node records ``a`` is the node id and ``b`` the
    :class:`Side` value; ``neighbors`` carries the neighbour ids a removed
    node was still attached to (the edges that died with it).  For edge
    records ``a``/``b`` are the left/right endpoints.

    Exactly one record exists per revision: every structural mutation bumps
    the revision once and appends one record, so the log's revisions are
    contiguous and a consumer holding arrays at revision ``r`` can replay
    precisely the records with revision ``> r``.
    """

    revision: int
    op: str
    a: "Node"
    b: object
    neighbors: Tuple["Node", ...] = ()


class Side(str, enum.Enum):
    """Identifies one of the two node sets of a bipartite graph."""

    LEFT = "left"
    RIGHT = "right"

    def other(self) -> "Side":
        """Return the opposite side."""
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class BipartiteGraph:
    """A bipartite association graph.

    Parameters
    ----------
    name:
        Optional human-readable name used in summaries and releases.

    Examples
    --------
    >>> g = BipartiteGraph(name="pharmacy")
    >>> g.add_left_node("bob")
    >>> g.add_right_node("insulin")
    >>> g.add_association("bob", "insulin")
    >>> g.num_associations()
    1
    """

    def __init__(
        self,
        name: str = "bipartite-graph",
        mutation_log_limit: int = DEFAULT_MUTATION_LOG_LIMIT,
    ):
        self.name = str(name)
        self._left: Dict[Node, dict] = {}
        self._right: Dict[Node, dict] = {}
        self._adj_left: Dict[Node, Set[Node]] = {}
        self._adj_right: Dict[Node, Set[Node]] = {}
        self._num_associations = 0
        self._revision = 0
        self._arrays: Optional["GraphArrays"] = None
        self._mutation_log: Deque[Mutation] = deque(maxlen=int(mutation_log_limit))

    def __getstate__(self) -> dict:
        # The compiled array view holds weakrefs (not picklable); drop it and
        # let the unpickled graph recompile lazily on first use, so graphs can
        # cross process boundaries for the parallel executors.  The mutation
        # log is copied (never shared) so the unpickled twin evolves its own
        # history.
        state = self.__dict__.copy()
        state["_arrays"] = None
        state["_mutation_log"] = deque(self._mutation_log, maxlen=self._mutation_log.maxlen)
        return state

    def __setstate__(self, state: dict) -> None:
        # Graphs pickled by older versions predate the mutation log.
        state.setdefault("_mutation_log", deque(maxlen=DEFAULT_MUTATION_LOG_LIMIT))
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Mutation tracking and the compiled array view
    # ------------------------------------------------------------------
    @property
    def revision(self) -> int:
        """Monotonic counter incremented by every structural mutation.

        Attribute-only updates (merging attrs into an existing node) do not
        bump the revision: the compiled array view only reflects structure.
        """
        return self._revision

    def _mutated(self, op: str, a: Node, b: object, neighbors: Tuple[Node, ...] = ()) -> None:
        """Record a structural mutation, staling any compiled arrays.

        Bumps the revision once and appends exactly one :class:`Mutation`
        record, so log revisions stay contiguous.  The stale compiled view is
        *kept* (not dropped): :meth:`arrays` uses it as the base for an
        incremental :meth:`~repro.graphs.arrays.GraphArrays.delta_compile`,
        and :meth:`GraphArrays.is_fresh` reports it stale because its
        revision no longer matches.
        """
        self._revision += 1
        self._mutation_log.append(Mutation(self._revision, op, a, b, neighbors))

    def mutations_since(self, revision: int) -> Optional[List[Mutation]]:
        """The mutation records applied after ``revision``, oldest first.

        Returns ``[]`` when the graph is still at ``revision``, and ``None``
        when the delta can no longer be reconstructed — the bounded log was
        truncated past ``revision``, or ``revision`` does not belong to this
        graph's history.  ``None`` tells incremental consumers to fall back
        to a full rebuild.
        """
        revision = int(revision)
        if revision == self._revision:
            return []
        if revision > self._revision or revision < 0:
            return None
        log = self._mutation_log
        if not log or log[0].revision > revision + 1:
            return None
        # Records are contiguous (one per revision), so the delta is a slice.
        start = revision + 1 - log[0].revision
        return [log[i] for i in range(start, len(log))]

    def arrays(self) -> "GraphArrays":
        """The compiled :class:`~repro.graphs.arrays.GraphArrays` view.

        Compiled lazily and cached; any structural mutation stales the cache,
        so the returned view always matches the current graph.  When a stale
        view and a covering mutation log are available, the recompile is
        incremental (:meth:`GraphArrays.delta_compile`) — it patches the CSR
        arrays instead of rebuilding them, falling back to a full
        :meth:`GraphArrays.compile` for large deltas or after log truncation.
        """
        from repro.graphs.arrays import GraphArrays

        if self._arrays is None:
            self._arrays = GraphArrays.compile(self)
        elif self._arrays.revision != self._revision:
            self._arrays = GraphArrays.delta_compile(self._arrays, self)
        return self._arrays

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_left_node(self, node: Node, **attrs) -> None:
        """Add a node to the left side; merging attributes if it exists there.

        Raises :class:`DuplicateNodeError` if the node already exists on the
        *right* side (node ids must be unique across the whole graph so that
        partitions of the node universe are unambiguous).
        """
        self._add_node(node, Side.LEFT, attrs)

    def add_right_node(self, node: Node, **attrs) -> None:
        """Add a node to the right side (see :meth:`add_left_node`)."""
        self._add_node(node, Side.RIGHT, attrs)

    def add_node(self, node: Node, side: Side, **attrs) -> None:
        """Add a node to the given ``side``."""
        self._add_node(node, Side(side), attrs)

    def _add_node(self, node: Node, side: Side, attrs: Mapping) -> None:
        if node is None:
            raise ValidationError("node id must not be None")
        nodes, other_nodes = (
            (self._left, self._right) if side is Side.LEFT else (self._right, self._left)
        )
        if node in other_nodes:
            raise DuplicateNodeError(node)
        if node in nodes:
            nodes[node].update(attrs)
            return
        nodes[node] = dict(attrs)
        adj = self._adj_left if side is Side.LEFT else self._adj_right
        adj[node] = set()
        self._mutated("add_node", node, side)

    def remove_node(self, node: Node) -> None:
        """Remove a node and every association incident to it."""
        side = self.side_of(node)
        adj, other_adj = (
            (self._adj_left, self._adj_right) if side is Side.LEFT else (self._adj_right, self._adj_left)
        )
        nodes = self._left if side is Side.LEFT else self._right
        neighbours = adj.pop(node)
        for nb in neighbours:
            other_adj[nb].discard(node)
        self._num_associations -= len(neighbours)
        del nodes[node]
        # One record (and one revision) per removal; the record carries the
        # edges that died with the node so a replay can mark their endpoints.
        self._mutated("remove_node", node, side, tuple(neighbours))

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` exists on either side."""
        return node in self._left or node in self._right

    def side_of(self, node: Node) -> Side:
        """Return the :class:`Side` a node belongs to.

        Raises :class:`NodeNotFoundError` if the node is not in the graph.
        """
        if node in self._left:
            return Side.LEFT
        if node in self._right:
            return Side.RIGHT
        raise NodeNotFoundError(node)

    def node_attributes(self, node: Node) -> dict:
        """Return the (mutable) attribute dictionary of ``node``."""
        if node in self._left:
            return self._left[node]
        if node in self._right:
            return self._right[node]
        raise NodeNotFoundError(node)

    # ------------------------------------------------------------------
    # Association management
    # ------------------------------------------------------------------
    def add_association(self, left: Node, right: Node, auto_add: bool = False) -> bool:
        """Add the association ``(left, right)``.

        Parameters
        ----------
        left, right:
            Node ids.  ``left`` must be a left-side node and ``right`` a
            right-side node (or missing, when ``auto_add`` is true).
        auto_add:
            When true, missing endpoints are created on the appropriate side.

        Returns
        -------
        bool
            ``True`` if a new association was added, ``False`` if it already
            existed (associations are simple, i.e. not multi-edges).
        """
        if left not in self._left:
            if auto_add and left not in self._right:
                self.add_left_node(left)
            else:
                raise NodeNotFoundError(left, Side.LEFT)
        if right not in self._right:
            if auto_add and right not in self._left:
                self.add_right_node(right)
            else:
                raise NodeNotFoundError(right, Side.RIGHT)
        if right in self._adj_left[left]:
            return False
        self._adj_left[left].add(right)
        self._adj_right[right].add(left)
        self._num_associations += 1
        self._mutated("add_edge", left, right)
        return True

    def remove_association(self, left: Node, right: Node) -> None:
        """Remove the association ``(left, right)``.

        Raises :class:`EdgeNotFoundError` if it does not exist.
        """
        if left not in self._adj_left or right not in self._adj_left[left]:
            raise EdgeNotFoundError(left, right)
        self._adj_left[left].remove(right)
        self._adj_right[right].remove(left)
        self._num_associations -= 1
        self._mutated("remove_edge", left, right)

    def has_association(self, left: Node, right: Node) -> bool:
        """Return ``True`` if the association ``(left, right)`` exists."""
        return left in self._adj_left and right in self._adj_left[left]

    # ------------------------------------------------------------------
    # Views and counts
    # ------------------------------------------------------------------
    def left_nodes(self) -> Iterator[Node]:
        """Iterate over left-side node ids."""
        return iter(self._left)

    def right_nodes(self) -> Iterator[Node]:
        """Iterate over right-side node ids."""
        return iter(self._right)

    def nodes(self, side: Optional[Side] = None) -> Iterator[Node]:
        """Iterate over node ids, optionally restricted to one side."""
        if side is None:
            yield from self._left
            yield from self._right
        elif Side(side) is Side.LEFT:
            yield from self._left
        else:
            yield from self._right

    def associations(self) -> Iterator[Association]:
        """Iterate over all associations as ``(left, right)`` pairs."""
        for left, neighbours in self._adj_left.items():
            for right in neighbours:
                yield (left, right)

    def neighbors(self, node: Node) -> Set[Node]:
        """Return a copy of the neighbour set of ``node``."""
        if node in self._adj_left:
            return set(self._adj_left[node])
        if node in self._adj_right:
            return set(self._adj_right[node])
        raise NodeNotFoundError(node)

    def degree(self, node: Node) -> int:
        """Return the number of associations incident to ``node``."""
        if node in self._adj_left:
            return len(self._adj_left[node])
        if node in self._adj_right:
            return len(self._adj_right[node])
        raise NodeNotFoundError(node)

    def num_left(self) -> int:
        """Number of left-side nodes."""
        return len(self._left)

    def num_right(self) -> int:
        """Number of right-side nodes."""
        return len(self._right)

    def num_nodes(self) -> int:
        """Total number of nodes on both sides."""
        return len(self._left) + len(self._right)

    def num_associations(self) -> int:
        """Total number of associations (edges)."""
        return self._num_associations

    def __len__(self) -> int:
        return self.num_nodes()

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BipartiteGraph(name={self.name!r}, left={self.num_left()}, "
            f"right={self.num_right()}, associations={self.num_associations()})"
        )

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def add_left_nodes(self, nodes: Iterable[Node]) -> None:
        """Add many left-side nodes without attributes."""
        for node in nodes:
            self.add_left_node(node)

    def add_right_nodes(self, nodes: Iterable[Node]) -> None:
        """Add many right-side nodes without attributes."""
        for node in nodes:
            self.add_right_node(node)

    def add_associations(self, pairs: Iterable[Association], auto_add: bool = False) -> int:
        """Add many associations; return how many were new."""
        added = 0
        for left, right in pairs:
            if self.add_association(left, right, auto_add=auto_add):
                added += 1
        return added

    def copy(self, name: Optional[str] = None) -> "BipartiteGraph":
        """Return a deep structural copy (attribute dicts are shallow-copied).

        The clone shares **no** mutable state with the original: it starts
        with its own empty mutation log, its own revision counter, and no
        compiled :class:`~repro.graphs.arrays.GraphArrays` view, so mutating
        either graph can never leak into the other
        (``tests/test_graphs_bipartite.py::TestCopyIsolation``).
        """
        clone = BipartiteGraph(
            name=name if name is not None else self.name,
            mutation_log_limit=self._mutation_log.maxlen or DEFAULT_MUTATION_LOG_LIMIT,
        )
        for node, attrs in self._left.items():
            clone.add_left_node(node, **attrs)
        for node, attrs in self._right.items():
            clone.add_right_node(node, **attrs)
        clone.add_associations(self.associations())
        return clone

    def association_count_between(self, left_nodes: Iterable[Node], right_nodes: Iterable[Node]) -> int:
        """Count associations with one endpoint in each of the given sets.

        Nodes that are absent from the graph are silently ignored (a group
        definition may legitimately reference nodes that have since been
        removed).  The count iterates from the smaller side of the
        restriction for efficiency.
        """
        left_set = {n for n in left_nodes if n in self._adj_left}
        right_set = {n for n in right_nodes if n in self._adj_right}
        if not left_set or not right_set:
            return 0
        # Iterate from whichever restricted side has fewer incident edges.
        left_incident = sum(len(self._adj_left[n]) for n in left_set)
        right_incident = sum(len(self._adj_right[n]) for n in right_set)
        count = 0
        if left_incident <= right_incident:
            for node in left_set:
                neighbours = self._adj_left[node]
                if len(neighbours) < len(right_set):
                    count += sum(1 for nb in neighbours if nb in right_set)
                else:
                    count += sum(1 for nb in right_set if nb in neighbours)
        else:
            for node in right_set:
                neighbours = self._adj_right[node]
                if len(neighbours) < len(left_set):
                    count += sum(1 for nb in neighbours if nb in left_set)
                else:
                    count += sum(1 for nb in left_set if nb in neighbours)
        return count

    def associations_incident_to(self, nodes: Iterable[Node]) -> int:
        """Count associations with **at least one** endpoint in ``nodes``.

        This is exactly the number of associations that disappear when the
        node set ``nodes`` (a *group* in the paper's sense) is removed from
        the graph, and is therefore the quantity that drives the group-level
        sensitivity of the association-count query.
        """
        node_set = set(nodes)
        count = 0
        seen_pairs = set()
        for node in node_set:
            if node in self._adj_left:
                for nb in self._adj_left[node]:
                    pair = (node, nb)
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        count += 1
            elif node in self._adj_right:
                for nb in self._adj_right[node]:
                    pair = (nb, node)
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        count += 1
        return count

    def remove_nodes(self, nodes: Iterable[Node]) -> None:
        """Remove every node in ``nodes`` (and incident associations)."""
        for node in list(nodes):
            if self.has_node(node):
                self.remove_node(node)

    def validate(self) -> None:
        """Check internal consistency; raises :class:`ValidationError` on corruption.

        Intended for tests and for loaders that construct graphs from
        untrusted files.
        """
        total = 0
        for left, neighbours in self._adj_left.items():
            if left not in self._left:
                raise ValidationError(f"adjacency references unknown left node {left!r}")
            for right in neighbours:
                if right not in self._right:
                    raise ValidationError(f"adjacency references unknown right node {right!r}")
                if left not in self._adj_right.get(right, ()):
                    raise ValidationError(f"asymmetric adjacency for ({left!r}, {right!r})")
                total += 1
        for right, neighbours in self._adj_right.items():
            for left in neighbours:
                if right not in self._adj_left.get(left, ()):
                    raise ValidationError(f"asymmetric adjacency for ({left!r}, {right!r})")
        if total != self._num_associations:
            raise ValidationError(
                f"association counter {self._num_associations} does not match adjacency ({total})"
            )
