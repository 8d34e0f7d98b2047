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
contiguous segment of one index buffer sorted by those keys, and calls
:meth:`Splitter.reorder` before each binary cut of a segment
(:func:`split_into_parts`).
"""

from __future__ import annotations

import abc
import hashlib
from typing import Dict, Hashable, List, Sequence, Tuple

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

    def __init__(self, cut_fractions: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7)):
        fractions = [float(f) for f in cut_fractions]
        if not fractions or any(not 0.0 < f < 1.0 for f in fractions):
            raise SpecializationError("cut_fractions must be non-empty values in (0, 1)")
        self.cut_fractions = tuple(fractions)
        self._cuts: Dict[int, Tuple[int, ...]] = {}

    def cuts(self, size: int) -> Tuple[int, ...]:
        """Distinct candidate cut positions into an ordering of ``size`` nodes.

        Cutting at ``c`` splits the ordering into its first ``c`` nodes and
        the rest.  At least one cut exists for two or more nodes; smaller
        sets cannot be split and raise :class:`SpecializationError`.
        """
        cached = self._cuts.get(size)
        if cached is None:
            if size < 2:
                raise SpecializationError(f"cannot split a set of {size} node(s)")
            cuts: List[int] = []
            for fraction in self.cut_fractions:
                cut = min(max(int(round(fraction * size)), 1), size - 1)
                if cut not in cuts:
                    cuts.append(cut)
            cached = self._cuts[size] = tuple(cuts)
        return cached

    @abc.abstractmethod
    def sort_keys(self, nodes: Sequence[Node], degrees: np.ndarray, str_ranks: np.ndarray) -> np.ndarray:
        """Per-node ``int64`` ranks every group's members are sorted by.

        ``degrees`` and ``str_ranks`` (each node's position in ``str`` order)
        are aligned with ``nodes``.
        """

    def reorder(self, segment: np.ndarray, rng: RandomState = None) -> np.ndarray:
        """The ordering one binary cut of ``segment`` is taken from.

        ``segment`` arrives sorted by :meth:`sort_keys` or as a part of an
        earlier cut; keyed orderings keep it as it is.
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
        hashes = np.fromiter(
            (
                int.from_bytes(hashlib.sha256(f"{self.salt}::{node}".encode("utf-8")).digest()[:8], "big")
                for node in nodes
            ),
            dtype=np.uint64,
            count=len(nodes),
        )
        return ranks_of(np.lexsort((str_ranks, hashes)))


class RandomOrderSplitter(Splitter):
    """Order nodes uniformly at random (seeded).

    Used by the random-specialization ablation baseline; the ordering is not
    a function of the data, so it has no privacy cost, but candidate quality
    is left to chance.  Each group starts from its members in ``str`` order,
    and every cut is taken from a fresh permutation of the part being cut.
    """

    def sort_keys(self, nodes, degrees, str_ranks):
        return np.asarray(str_ranks, dtype=np.int64)

    def reorder(self, segment: np.ndarray, rng: RandomState = None) -> np.ndarray:
        return segment[as_rng(rng).permutation(len(segment))]


def split_into_parts(
    buffer: np.ndarray,
    lo: int,
    hi: int,
    num_parts: int,
    splitter: Splitter,
    choose,
    rng: RandomState = None,
) -> List[Tuple[int, int]]:
    """Cut ``buffer[lo:hi]`` into up to ``num_parts`` parts by recursive bisection.

    Each round takes the first of the largest parts still splittable, lets
    ``splitter`` reorder it in place and cuts it where ``choose(segment,
    cuts)`` says (an index into ``cuts``; typically an Exponential Mechanism).
    A segment of ``n`` nodes therefore takes ``min(num_parts, n) - 1``
    choices.  Returns the parts as ``(start, stop)`` spans; an empty segment
    has none.
    """
    parts = [(lo, hi)] if hi > lo else []
    while 0 < len(parts) < num_parts:
        target = max(parts, key=lambda part: part[1] - part[0])
        start, stop = target
        if stop - start < 2:
            break
        parts.remove(target)
        segment = buffer[start:stop]
        reordered = splitter.reorder(segment, rng=rng)
        if reordered is not segment:
            segment[:] = reordered
        cuts = splitter.cuts(stop - start)
        cut = start + cuts[choose(segment, cuts)]
        parts += [(start, cut), (cut, stop)]
    return parts
