"""Tests for candidate-split generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SpecializationError
from repro.grouping.scores import BalancedAssociationScore
from repro.grouping.splitters import (
    DegreeOrderSplitter,
    HashOrderSplitter,
    RandomOrderSplitter,
    split_sides,
)
from repro.mechanisms.exponential import ExponentialMechanism


def side_parts(buffer, lo, hi, num_parts, splitter, choose, rng=None, rounds=None):
    """One side's parts, as ``(start, stop)`` spans, from :func:`split_sides`.

    ``rounds`` defaults to the specializer's: enough bisection rounds to
    reach ``num_parts``.
    """
    if rounds is None:
        rounds = max(1, math.ceil(math.log2(num_parts)))
    starts, stops, counts = split_sides(buffer, [lo], [hi], [num_parts], rounds, splitter, choose, rng=rng)
    assert counts.tolist() == [len(starts)]
    return list(zip(starts.tolist(), stops.tolist()))


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

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=10))
    def test_cut_table_rows_follow_the_round_clamp_dedup_rule(self, fractions):
        splitter = HashOrderSplitter(cut_fractions=fractions)
        for size in range(2, 300):
            expected = []
            for fraction in splitter.cut_fractions:
                cut = min(max(int(round(fraction * size)), 1), size - 1)
                if cut not in expected:
                    expected.append(cut)
            assert splitter.cuts(size) == tuple(expected)
        cuts, valid = splitter.cut_table(5)
        assert not valid[:2].any()

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
    """One side cut by the level schedule, with a stand-in chooser."""

    def choose_first(self, lo, hi, cuts, valid):
        return np.zeros(len(lo), dtype=np.int64)

    def test_produces_requested_parts(self):
        buffer = np.arange(16)
        parts = side_parts(buffer, 0, 16, 4, HashOrderSplitter(), self.choose_first, rng=0)
        assert len(parts) == 4
        spans = sorted(parts)
        assert spans[0][0] == 0 and spans[-1][1] == 16
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_small_input_returns_fewer_parts(self):
        parts = side_parts(np.arange(1), 0, 1, 4, HashOrderSplitter(), self.choose_first)
        assert parts == [(0, 1)]

    def test_empty_input(self):
        assert side_parts(np.arange(3), 2, 2, 4, HashOrderSplitter(), self.choose_first) == []

    def test_parts_are_disjoint(self):
        buffer = np.arange(30, 53)
        parts = side_parts(buffer, 0, 23, 5, RandomOrderSplitter(), self.choose_first, rng=1)
        assert len(parts) == 5
        spans = sorted(parts)
        assert spans[0][0] == 0 and spans[-1][1] == 23
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert sorted(buffer.tolist()) == list(range(30, 53))

    def test_each_round_cuts_the_first_largest_part(self):
        sizes = []

        def choose_first(lo, hi, cuts, valid):
            sizes.extend((hi - lo).tolist())
            return np.zeros(len(lo), dtype=np.int64)

        parts = side_parts(np.arange(10), 0, 10, 4, HashOrderSplitter(), choose_first)
        # Round 1 cuts 10 -> (0,3)+(3,10).  Round 2 cuts both of its parts,
        # the larger first; (3,5) and (5,10) wait, though (5,10) is largest.
        assert sizes == [10, 7, 3]
        assert parts == [(3, 5), (5, 10), (0, 1), (1, 3)]

    def test_rounds_cap_the_choices_a_node_is_in(self):
        def choose_last(lo, hi, cuts, valid):
            return valid.sum(axis=1) - 1

        # 5 -> (0,4)+(4,5); round 2 cuts (0,4) and cannot cut (4,5); a third
        # round would cut (0,3).
        parts = side_parts(np.arange(5), 0, 5, 4, HashOrderSplitter(), choose_last)
        assert parts == [(4, 5), (0, 3), (3, 4)]
        assert len(side_parts(np.arange(5), 0, 5, 4, HashOrderSplitter(), choose_last, rounds=3)) == 4


class TestRoundSchedule:
    """Properties of :func:`split_sides` with Exponential-Mechanism choices."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 64), st.integers(1, 8)), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_parts_partition_each_side_and_each_choice_takes_one_uniform(self, sides, seed):
        sizes = np.array([size for size, _ in sides])
        fanout = np.array([fanout for _, fanout in sides])
        rounds = max(1, math.ceil(math.log2(int(fanout.max()))))
        hi = np.cumsum(sizes)
        lo = hi - sizes
        rng = np.random.default_rng(seed)
        degrees = rng.integers(0, 9, int(hi[-1]))
        prefix = np.concatenate(([0], np.cumsum(degrees)))
        mechanism = ExponentialMechanism(0.5, rng=rng)
        buffer = np.arange(int(hi[-1]))
        drawn, selections = [], np.zeros(len(buffer), dtype=np.int64)

        def choose(start, stop, cuts, valid):
            drawn.append(len(start))
            for a, b in zip(start.tolist(), stop.tolist()):
                selections[buffer[a:b]] += 1
            scores = BalancedAssociationScore().score_rows(prefix, start, stop, cuts, valid)
            return mechanism.select_indices(scores, valid, rng.random(len(start)))

        starts, stops, counts = split_sides(buffer, lo, hi, fanout, rounds, HashOrderSplitter(), choose)
        assert (counts >= 1).all() and (counts <= np.minimum(fanout, sizes)).all()
        assert sum(drawn) == int((counts - 1).sum())
        assert selections.max(initial=0) <= rounds
        bounds = np.cumsum(counts)[:-1]
        for side_lo, side_hi, side_starts, side_stops in zip(
            lo, hi, np.split(starts, bounds), np.split(stops, bounds)
        ):
            spans = sorted(zip(side_starts.tolist(), side_stops.tolist()))
            assert spans[0][0] == side_lo and spans[-1][1] == side_hi
            assert all(a < b for a, b in spans)
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert buffer.tolist() == list(range(int(hi[-1])))
