"""Tests for split score functions.

Scores rate cutting an ordered segment at a position; ``split_score`` builds
that segment from two explicit parts (absent nodes have degree 0).
"""

import numpy as np
import pytest

from repro.grouping.scores import BalancedAssociationScore, BalanceScore, EdgeUniformityScore


def split_score(score, graph, part_a, part_b) -> float:
    ordering = list(part_a) + list(part_b)
    degrees = [graph.degree(n) if graph.has_node(n) else 0 for n in ordering]
    return score.scores(degrees, [len(part_a)])[0]


class TestBalanceScore:
    def test_balanced_split_scores_zero(self, tiny_graph):
        score = BalanceScore()
        assert split_score(score, tiny_graph, ["bob", "carol"], ["dave", "erin"]) == 0.0

    def test_imbalanced_split_scores_negative(self, tiny_graph):
        score = BalanceScore()
        assert split_score(score, tiny_graph, ["bob"], ["carol", "dave", "erin"]) == -2.0

    def test_more_balanced_is_better(self, tiny_graph):
        score = BalanceScore()
        balanced = split_score(score, tiny_graph, ["bob", "carol"], ["dave", "erin"])
        skewed = split_score(score, tiny_graph, ["bob"], ["carol", "dave", "erin"])
        assert balanced > skewed

    def test_sensitivity_is_one(self):
        assert BalanceScore().sensitivity == 1.0

    def test_scores_vector(self, tiny_graph):
        score = BalanceScore()
        assert len(score.scores([2, 1, 2], [1, 2])) == 2


class TestBalancedAssociationScore:
    def test_prefers_equal_association_mass(self, tiny_graph):
        score = BalancedAssociationScore(degree_bound=10)
        # bob has 2 purchases, dave 2, carol 1, erin 0.
        balanced = split_score(score, tiny_graph, ["bob", "erin"], ["dave", "carol"])
        skewed = split_score(score, tiny_graph, ["bob", "dave"], ["carol", "erin"])
        assert balanced > skewed

    def test_normalised_by_degree_bound(self, tiny_graph):
        tight = BalancedAssociationScore(degree_bound=1.0)
        loose = BalancedAssociationScore(degree_bound=100.0)
        split = (["bob", "dave"], ["carol", "erin"])
        assert abs(split_score(tight, tiny_graph, *split)) > abs(split_score(loose, tiny_graph, *split))

    def test_unknown_nodes_contribute_zero(self, tiny_graph):
        score = BalancedAssociationScore()
        value = split_score(score, tiny_graph, ["ghost1"], ["ghost2"])
        assert value == 0.0

    def test_invalid_degree_bound(self):
        with pytest.raises(Exception):
            BalancedAssociationScore(degree_bound=0)


class TestEdgeUniformityScore:
    def test_uniform_degrees_score_best(self, tiny_graph):
        score = EdgeUniformityScore(degree_bound=10)
        uniform = split_score(score, tiny_graph, ["bob", "dave"], ["carol"])
        mixed = split_score(score, tiny_graph, ["bob", "erin"], ["carol", "dave"])
        assert uniform >= mixed

    def test_empty_parts_score_zero(self, tiny_graph):
        score = EdgeUniformityScore()
        assert split_score(score, tiny_graph, ["ghost"], ["phantom"]) == 0.0

    def test_scores_are_non_positive(self, tiny_graph):
        score = EdgeUniformityScore()
        split = (["bob", "carol"], ["dave", "erin"])
        assert split_score(score, tiny_graph, *split) <= 0.0


@pytest.mark.parametrize(
    "score", [BalanceScore(), BalancedAssociationScore(degree_bound=7.0), EdgeUniformityScore(degree_bound=3.0)]
)
def test_batched_scores_match_one_cut_at_a_time(score):
    degrees = [5, 0, 3, 3, 9, 1, 2]
    cuts = (2, 3, 4, 1, 6)
    expected = []
    for cut in cuts:
        part_a, part_b = np.array(degrees[:cut], dtype=float), np.array(degrees[cut:], dtype=float)
        if isinstance(score, BalanceScore):
            expected.append(-abs(len(part_a) - len(part_b)))
        elif isinstance(score, BalancedAssociationScore):
            expected.append(-abs(part_a.sum() - part_b.sum()) / score.degree_bound)
        else:
            expected.append(-0.5 * (float(np.std(part_a)) + float(np.std(part_b))) / score.degree_bound)
    assert score.scores(degrees, cuts) == expected


@pytest.mark.parametrize(
    "score", [BalanceScore(), BalancedAssociationScore(degree_bound=7.0), EdgeUniformityScore(degree_bound=3.0)]
)
def test_score_rows_match_scores_row_by_row(score):
    rng = np.random.default_rng(4)
    degrees = rng.integers(0, 12, 200)
    prefix = np.concatenate(([0], np.cumsum(degrees)))
    lo = rng.integers(0, 150, 40)
    hi = lo + rng.integers(2, 50, 40)
    counts = rng.integers(1, 6, 40)
    cuts = np.stack([rng.integers(1, n, 5) for n in (hi - lo).tolist()])
    valid = np.arange(5)[None, :] < counts[:, None]
    rows = score.score_rows(prefix, lo, hi, cuts, valid)
    for row, start, stop, count, row_cuts in zip(rows, lo, hi, counts, cuts):
        assert row[:count].tolist() == score.scores(degrees[start:stop].tolist(), row_cuts[:count].tolist())
        assert np.isneginf(row[count:]).all()
