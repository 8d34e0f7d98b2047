"""Tests for candidate-split generation."""

import numpy as np
import pytest

from repro.exceptions import SpecializationError
from repro.grouping.splitters import (
    DegreeOrderSplitter,
    HashOrderSplitter,
    RandomOrderSplitter,
    split_into_parts,
)


class TestSplitters:
    @pytest.fixture
    def members(self, dblp_graph):
        import itertools

        return list(itertools.islice(dblp_graph.left_nodes(), 20))

    def test_propose_covers_all_members(self, dblp_graph, members):
        for splitter in (HashOrderSplitter(), DegreeOrderSplitter(), RandomOrderSplitter()):
            ordering = splitter.order(dblp_graph, members, rng=0)
            assert sorted(ordering, key=str) == sorted(members, key=str)
            assert all(1 <= cut < len(members) for cut in splitter.cuts(len(members)))

    def test_propose_generates_multiple_candidates(self, members):
        cuts = HashOrderSplitter().cuts(len(members))
        assert len(cuts) >= 2
        assert len(set(cuts)) == len(cuts)

    def test_propose_two_members(self):
        assert HashOrderSplitter().cuts(2) == (1,)

    def test_propose_too_small_raises(self):
        with pytest.raises(SpecializationError):
            HashOrderSplitter().cuts(1)
        with pytest.raises(SpecializationError):
            HashOrderSplitter().cuts(0)

    def test_invalid_cut_fractions(self):
        with pytest.raises(SpecializationError):
            HashOrderSplitter(cut_fractions=[])
        with pytest.raises(SpecializationError):
            HashOrderSplitter(cut_fractions=[0.0, 0.5])

    def test_hash_ordering_deterministic(self, dblp_graph, members):
        a = HashOrderSplitter(salt="s").order(dblp_graph, members)
        b = HashOrderSplitter(salt="s").order(dblp_graph, members)
        assert a == b

    def test_hash_salt_changes_order(self, dblp_graph, members):
        a = HashOrderSplitter(salt="s1").order(dblp_graph, members)
        b = HashOrderSplitter(salt="s2").order(dblp_graph, members)
        assert a != b

    def test_degree_order_descending(self, dblp_graph, members):
        ordering = DegreeOrderSplitter().order(dblp_graph, members)
        degrees = [dblp_graph.degree(n) for n in ordering]
        assert degrees == sorted(degrees, reverse=True)

    def test_random_order_seeded(self, dblp_graph, members):
        a = RandomOrderSplitter().order(dblp_graph, members, rng=5)
        b = RandomOrderSplitter().order(dblp_graph, members, rng=5)
        c = RandomOrderSplitter().order(dblp_graph, members, rng=6)
        assert a == b
        assert a != c


class TestSplitIntoParts:
    def choose_first(self, segment, cuts):
        return 0

    def test_produces_requested_parts(self):
        buffer = np.arange(16)
        parts = split_into_parts(buffer, 0, 16, 4, HashOrderSplitter(), self.choose_first, rng=0)
        assert len(parts) == 4
        spans = sorted(parts)
        assert spans[0][0] == 0 and spans[-1][1] == 16
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_small_input_returns_fewer_parts(self):
        parts = split_into_parts(np.arange(1), 0, 1, 4, HashOrderSplitter(), self.choose_first)
        assert parts == [(0, 1)]

    def test_empty_input(self):
        assert split_into_parts(np.arange(3), 2, 2, 4, HashOrderSplitter(), self.choose_first) == []

    def test_parts_are_disjoint(self):
        buffer = np.arange(30, 53)
        parts = split_into_parts(buffer, 0, 23, 5, RandomOrderSplitter(), self.choose_first, rng=1)
        assert len(parts) == 5
        spans = sorted(parts)
        assert spans[0][0] == 0 and spans[-1][1] == 23
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert sorted(buffer.tolist()) == list(range(30, 53))

    def test_each_round_cuts_the_first_largest_part(self):
        sizes = []

        def choose_middle(segment, cuts):
            sizes.append(len(segment))
            return len(cuts) // 2

        parts = split_into_parts(np.arange(8), 0, 8, 3, HashOrderSplitter(), choose_middle)
        # 8 -> (0,4)+(4,8); of the two equal parts the first, (0,4), is cut next.
        assert sizes == [8, 4]
        assert parts == [(4, 8), (0, 2), (2, 4)]
