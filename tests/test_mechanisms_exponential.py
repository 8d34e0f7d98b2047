"""Tests for the Exponential Mechanism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.mechanisms.exponential import ExponentialMechanism


class TestSelectionProbabilities:
    def test_uniform_for_equal_scores(self):
        mech = ExponentialMechanism(epsilon=1.0)
        probs = mech.selection_probabilities([3.0, 3.0, 3.0])
        assert np.allclose(probs, 1 / 3)

    def test_higher_score_higher_probability(self):
        mech = ExponentialMechanism(epsilon=1.0)
        probs = mech.selection_probabilities([0.0, 5.0])
        assert probs[1] > probs[0]

    def test_probability_ratio_matches_theory(self):
        epsilon, sensitivity = 2.0, 1.0
        mech = ExponentialMechanism(epsilon=epsilon, score_sensitivity=sensitivity)
        scores = [0.0, 1.0]
        probs = mech.selection_probabilities(scores)
        expected_ratio = np.exp(epsilon * (scores[1] - scores[0]) / (2 * sensitivity))
        assert probs[1] / probs[0] == pytest.approx(expected_ratio)

    def test_probabilities_sum_to_one(self):
        mech = ExponentialMechanism(epsilon=0.3)
        probs = mech.selection_probabilities([1.0, -2.0, 0.5, 7.0])
        assert probs.sum() == pytest.approx(1.0)

    def test_large_scores_do_not_overflow(self):
        mech = ExponentialMechanism(epsilon=10.0)
        probs = mech.selection_probabilities([1e6, 1e6 - 1])
        assert np.all(np.isfinite(probs))

    def test_empty_scores_rejected(self):
        with pytest.raises(ValidationError):
            ExponentialMechanism(epsilon=1.0).selection_probabilities([])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValidationError):
            ExponentialMechanism(epsilon=1.0).selection_probabilities([1.0, np.inf])


class TestSelect:
    def test_select_with_scores(self):
        mech = ExponentialMechanism(epsilon=1.0, rng=0)
        choice = mech.select(["a", "b", "c"], scores=[0.0, 0.0, 100.0])
        assert choice == "c"

    def test_select_with_score_fn(self):
        mech = ExponentialMechanism(epsilon=5.0, rng=0)
        choice = mech.select([1, 2, 3, 10], score_fn=lambda x: float(x))
        assert choice in (1, 2, 3, 10)

    def test_score_length_mismatch_raises(self):
        with pytest.raises(ValidationError):
            ExponentialMechanism(1.0).select(["a", "b"], scores=[1.0])

    def test_missing_scores_and_fn_raises(self):
        with pytest.raises(ValidationError):
            ExponentialMechanism(1.0).select(["a", "b"])

    def test_empty_candidates_raises(self):
        with pytest.raises(ValidationError):
            ExponentialMechanism(1.0).select([], scores=[])

    def test_seeded_reproducibility(self):
        a = ExponentialMechanism(1.0, rng=4).select(list("abcdef"), scores=[1, 2, 3, 4, 5, 6])
        b = ExponentialMechanism(1.0, rng=4).select(list("abcdef"), scores=[1, 2, 3, 4, 5, 6])
        assert a == b


class TestStatisticalPreference:
    def test_empirically_prefers_best_candidate(self):
        mech = ExponentialMechanism(epsilon=1.5, score_sensitivity=1.0, rng=9)
        scores = [0.0, 1.0, 3.0]
        counts = np.zeros(3)
        for _ in range(3000):
            counts[mech.select_index(scores)] += 1
        assert counts[2] > counts[1] > counts[0]

    def test_small_epsilon_approaches_uniform(self):
        mech = ExponentialMechanism(epsilon=1e-6, rng=10)
        probs = mech.selection_probabilities([0.0, 10.0, 20.0])
        assert np.allclose(probs, 1 / 3, atol=1e-4)

    def test_privacy_cost(self):
        cost = ExponentialMechanism(epsilon=0.25).privacy_cost()
        assert cost.epsilon == 0.25
        assert cost.delta == 0.0


class TestSelectIndexMatchesGeneratorChoice:
    """``select_index`` samples by inverse CDF from one ``random()`` draw;
    ``Generator.choice(n, p=p)`` does the same, so both pick the same index
    and leave the generator in the same state."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=8),
        st.floats(0.01, 5.0),
        st.integers(0, 2**32 - 1),
    )
    def test_same_index_and_generator_state(self, scores, epsilon, seed):
        mechanism = ExponentialMechanism(epsilon=epsilon, rng=np.random.default_rng(seed))
        reference = np.random.default_rng(seed)
        probabilities = mechanism.selection_probabilities(scores)
        for _ in range(3):
            expected = int(reference.choice(len(probabilities), p=probabilities))
            assert mechanism.select_index(scores) == expected
        assert mechanism.rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8),
        st.floats(0.01, 5.0),
        st.floats(0.1, 60.0),
    )
    def test_probabilities_equal_the_array_formula_bit_for_bit(self, scores, epsilon, sensitivity):
        mechanism = ExponentialMechanism(epsilon=epsilon, score_sensitivity=sensitivity)
        logits = epsilon * np.asarray(scores, dtype=float) / (2.0 * sensitivity)
        logits -= logits.max()
        weights = np.exp(logits)
        assert np.array_equal(mechanism.selection_probabilities(scores), weights / weights.sum())


class TestSelectIndicesMatchesSelectIndex:
    """``select_indices`` is ``select_index`` row by row: with one uniform
    per row from ``rng.random(m)``, the same indices and the same generator
    state as one scalar draw per row on a twin generator."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12),
        st.floats(0.01, 5.0),
        st.floats(0.1, 60.0),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_rows_match_select_index_on_a_twin_generator(self, width, epsilon, sensitivity, seed, data):
        counts = data.draw(st.lists(st.integers(1, width), min_size=1, max_size=8))
        scores = np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=width, max_size=width),
                    min_size=len(counts),
                    max_size=len(counts),
                )
            )
        )
        valid = np.arange(width)[None, :] < np.array(counts)[:, None]
        scores[~valid] = -np.inf
        batched = ExponentialMechanism(epsilon, sensitivity, rng=np.random.default_rng(seed))
        single = ExponentialMechanism(epsilon, sensitivity, rng=np.random.default_rng(seed))
        chosen = batched.select_indices(scores, valid, batched.rng.random(len(counts)))
        expected = [single.select_index(row[:count].tolist()) for row, count in zip(scores, counts)]
        assert chosen.tolist() == expected
        assert batched.rng.bit_generator.state == single.rng.bit_generator.state

    def test_rows_without_candidates_rejected(self):
        with pytest.raises(ValidationError):
            ExponentialMechanism(1.0).select_indices(np.zeros((1, 2)), np.zeros((1, 2), dtype=bool), [0.5])

    def test_non_finite_valid_scores_rejected(self):
        with pytest.raises(ValidationError):
            ExponentialMechanism(1.0).select_indices(
                np.array([[np.inf, 0.0]]), np.ones((1, 2), dtype=bool), [0.5]
            )
