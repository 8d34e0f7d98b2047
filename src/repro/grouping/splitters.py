"""Candidate-split generation for the specialization phase.

A *splitter* orders the nodes of a group and offers a small set of cut
positions into that ordering; the Exponential Mechanism then chooses one cut
using a :class:`~repro.grouping.scores.SplitScore`.  Orderings come from a
fixed per-node key (degree or salted hash) or a seeded random permutation,
with cut points at a handful of fractions — the classic approach in
differentially private hierarchical decompositions, which keeps the candidate
set small and data-independent in size.

The specializer works on integer segments: it computes each node's key once
per build (:meth:`Splitter.sort_keys`), keeps every group's side members as a
contiguous segment of one index buffer sorted by those keys, and cuts the
segments of a whole level together (:func:`split_sides`), taking candidate
cuts from a per-size table (:meth:`Splitter.cut_table`).
"""

from __future__ import annotations

import abc
import hashlib
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SpecializationError
from repro.graphs.bipartite import BipartiteGraph
from repro.utils.rng import RandomState, as_rng

Node = Hashable


def ranks_of(order: np.ndarray) -> np.ndarray:
    """The inverse permutation of ``order``: each position's rank."""
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order), dtype=np.int64)
    return ranks


class Splitter(abc.ABC):
    """Interface for candidate-split generators."""

    #: ``True`` when :meth:`reorder` draws a fresh ordering before every cut.
    reorders = False

    def __init__(self, cut_fractions: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7)):
        fractions = [float(f) for f in cut_fractions]
        if not fractions or any(not 0.0 < f < 1.0 for f in fractions):
            raise SpecializationError("cut_fractions must be non-empty values in (0, 1)")
        self.cut_fractions = tuple(fractions)
        self._table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _build_table(self, max_size: int) -> Tuple[np.ndarray, np.ndarray]:
        sizes = np.arange(max_size + 1, dtype=np.int64)[:, None]
        raw = np.rint(np.array(self.cut_fractions) * sizes).astype(np.int64)
        raw = np.minimum(np.maximum(raw, 1), np.maximum(sizes - 1, 1))
        fresh = np.ones(raw.shape, dtype=bool)
        for column in range(1, raw.shape[1]):
            fresh[:, column] = (raw[:, :column] != raw[:, column : column + 1]).all(axis=1)
        fresh[:2] = False
        # Move each size's distinct cuts to the front, in fraction order.
        order = np.argsort(~fresh, axis=1, kind="stable")
        cuts = np.take_along_axis(raw, order, axis=1)
        valid = np.take_along_axis(fresh, order, axis=1)
        return cuts, valid

    def cut_table(self, max_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The candidate cuts of every size up to ``max_size``, as two arrays.

        Row ``n`` of ``cuts`` holds the distinct positions
        ``min(max(round(f * n), 1), n - 1)`` over the cut fractions ``f``,
        in fraction order, followed by padding; ``valid`` marks the distinct
        ones.  Sizes below two have no cut.  The table grows on demand and
        is kept, so a build computes it once.
        """
        if self._table is None or len(self._table[0]) <= max_size:
            self._table = self._build_table(max(max_size, 2 * len(self._table[0]) if self._table else 2))
        return self._table

    def cuts(self, size: int) -> Tuple[int, ...]:
        """Distinct candidate cut positions into an ordering of ``size`` nodes.

        Cutting at ``c`` splits the ordering into its first ``c`` nodes and
        the rest.  At least one cut exists for two or more nodes; smaller
        sets cannot be split and raise :class:`SpecializationError`.
        """
        if size < 2:
            raise SpecializationError(f"cannot split a set of {size} node(s)")
        cuts, valid = self.cut_table(size)
        return tuple(cuts[size][valid[size]].tolist())

    @abc.abstractmethod
    def sort_keys(self, nodes: Sequence[Node], degrees: np.ndarray, str_ranks: np.ndarray) -> np.ndarray:
        """Per-node ``int64`` ranks every group's members are sorted by.

        ``degrees`` and ``str_ranks`` (each node's position in ``str`` order)
        are aligned with ``nodes``.
        """

    def reorder(self, segment: np.ndarray, rng: RandomState = None) -> np.ndarray:
        """The ordering one binary cut of ``segment`` is taken from.

        ``segment`` arrives sorted by :meth:`sort_keys` or as a part of an
        earlier cut; keyed orderings keep it as it is (and leave
        :attr:`reorders` false).
        """
        return segment

    def order(self, graph: BipartiteGraph, members: Sequence[Node], rng: RandomState = None) -> List[Node]:
        """``members`` in the order their first cut is taken from."""
        members = list(members)
        degrees = np.asarray([graph.degree(n) if graph.has_node(n) else 0 for n in members], dtype=np.int64)
        str_ranks = ranks_of(np.argsort([str(node) for node in members], kind="stable"))
        segment = np.argsort(self.sort_keys(members, degrees, str_ranks), kind="stable")
        return [members[i] for i in self.reorder(segment, rng).tolist()]


class DegreeOrderSplitter(Splitter):
    """Order nodes by descending degree (ties broken by node id).

    Cutting a degree-sorted ordering at a middle fraction tends to spread the
    heavy-hitter nodes across both parts' *counts* poorly but makes the split
    deterministic given the graph, which is what the Exponential Mechanism
    needs (the randomness must come from the mechanism, not the candidates).
    """

    def sort_keys(self, nodes, degrees, str_ranks):
        return ranks_of(np.lexsort((str_ranks, -np.asarray(degrees, dtype=np.int64))))


class HashOrderSplitter(Splitter):
    """Order nodes by a salted hash of their id.

    The ordering is data-independent (it ignores the graph structure), which
    keeps the candidate generation itself free of privacy cost; the salt makes
    different hierarchy branches use different orderings.
    """

    def __init__(self, cut_fractions: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7), salt: str = ""):
        super().__init__(cut_fractions)
        self.salt = str(salt)

    def sort_keys(self, nodes, degrees, str_ranks):
        # The first eight digest bytes of each node, read as big-endian integers.
        digests = b"".join(
            [hashlib.sha256(f"{self.salt}::{node}".encode("utf-8")).digest()[:8] for node in nodes]
        )
        hashes = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
        return ranks_of(np.lexsort((str_ranks, hashes)))


class RandomOrderSplitter(Splitter):
    """Order nodes uniformly at random (seeded).

    Used by the random-specialization ablation baseline; the ordering is not
    a function of the data, so it has no privacy cost, but candidate quality
    is left to chance.  Each group starts from its members in ``str`` order,
    and every cut is taken from a fresh permutation of the part being cut.
    """

    reorders = True

    def sort_keys(self, nodes, degrees, str_ranks):
        return np.asarray(str_ranks, dtype=np.int64)

    def reorder(self, segment: np.ndarray, rng: RandomState = None) -> np.ndarray:
        return segment[as_rng(rng).permutation(len(segment))]


def split_sides(
    buffer: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    fanout: np.ndarray,
    rounds: int,
    splitter: Splitter,
    choose: Callable[..., np.ndarray],
    rng: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut every side ``buffer[lo[s]:hi[s]]`` into up to ``fanout[s]`` parts.

    Recursive bisection in at most ``rounds`` rounds.  Each round cuts, in
    every side, each part of two or more nodes that existed when the round
    began, largest first (the earliest made among equals), while the side
    has fewer than its fanout parts.  So a node is in at most one choice per
    round, and a side of ``n`` nodes takes at most ``min(fanout, n) - 1``
    choices.  The cuts run in steps, one per side at a time across all
    sides; a reordering splitter permutes each target in place first.
    ``choose(lo, hi, cuts, valid)`` gets the targets' spans and the
    cut-table rows of their sizes and returns an index into each row's cuts
    (typically Exponential-Mechanism draws).

    A cut part's halves follow the parts that already exist, so parts keep
    the order they were made in.  Returns ``(starts, stops, counts)``: side
    ``s``'s parts, in order, are the next ``counts[s]`` spans of
    ``starts``/``stops``; an empty side has none.
    """
    lo, hi, fanout = (np.asarray(a, dtype=np.int64) for a in (lo, hi, fanout))
    width = int(fanout.max()) if len(lo) else 1
    part_lo = np.zeros((len(lo), width), dtype=np.int64)
    part_hi = np.zeros((len(lo), width), dtype=np.int64)
    part_lo[:, 0], part_hi[:, 0] = lo, hi
    # Birth order of each part; unused slots sort last.
    born = np.full((len(lo), width), 2 * width, dtype=np.int64)
    born[:, 0] = 0
    counts = (hi > lo).astype(np.int64)
    table, valid = splitter.cut_table(int((hi - lo).max()) if len(lo) else 0)
    every = np.arange(len(lo))
    step = 0
    for _ in range(rounds):
        fresh = 2 * step + 1  # parts born from here on wait for the next round
        while True:
            sizes = part_hi - part_lo
            cuttable = (born < fresh) & (sizes >= 2)
            target = np.argmax(np.where(cuttable, sizes * (2 * width + 1) - born, -1), axis=1)
            rows = np.flatnonzero((counts < fanout) & cuttable[every, target])
            if not rows.size:
                break
            target, made = target[rows], counts[rows]
            start, stop = part_lo[rows, target], part_hi[rows, target]
            if splitter.reorders:
                for a, b in zip(start.tolist(), stop.tolist()):
                    buffer[a:b] = splitter.reorder(buffer[a:b], rng=rng)
            size = stop - start
            cut = start + table[size, choose(start, stop, table[size], valid[size])]
            part_hi[rows, target] = cut
            part_lo[rows, made], part_hi[rows, made] = cut, stop
            born[rows, target], born[rows, made] = 2 * step + 1, 2 * step + 2
            counts[rows] = made + 1
            step += 1
    order = np.argsort(born, axis=1, kind="stable")
    used = np.arange(width) < counts[:, None]
    return part_lo[every[:, None], order][used], part_hi[every[:, None], order][used], counts
