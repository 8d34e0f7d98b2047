"""Experiment E1 — Figure 1: relative error rate vs epsilon_g per information level.

Reproduces the paper's only figure.  The benchmark times the two pipeline
phases separately (specialization and the per-epsilon noise evaluation) and
writes the reproduced curve family to ``benchmarks/results/figure1.*``.

The shape assertions encode the figure's qualitative claims:

* RER decreases as epsilon_g grows, for every information level;
* RER increases with the information level (coarser protection, more noise);
* the highest level is dramatically (>5x) worse than the lowest at every
  epsilon_g, while the lowest levels stay within usable error.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, save_text
from repro.evaluation.figure1 import (
    Figure1Config,
    build_figure1_hierarchy,
    run_figure1,
    run_figure1_analytic,
)
from repro.utils.serialization import to_json_file


def test_bench_figure1_specialization_phase(benchmark, bench_graph):
    """Time phase 1: building the 9-level hierarchy with the Exponential Mechanism."""
    config = Figure1Config(num_levels=9, scale=BENCH_SCALE, seed=BENCH_SEED)
    hierarchy = benchmark.pedantic(
        build_figure1_hierarchy,
        args=(bench_graph, config),
        kwargs={"rng": BENCH_SEED},
        rounds=1,
        iterations=1,
    )
    assert hierarchy.top_level == 9
    assert hierarchy.bottom_level == 0


def test_bench_figure1_curves(benchmark, bench_graph, bench_hierarchy, results_dir):
    """Time and reproduce the full Figure 1 sweep (Monte-Carlo, 40 trials per point)."""
    config = Figure1Config(num_levels=9, num_trials=40, scale=BENCH_SCALE, seed=BENCH_SEED)

    result = benchmark.pedantic(
        run_figure1,
        kwargs={"graph": bench_graph, "config": config, "hierarchy": bench_hierarchy},
        rounds=1,
        iterations=1,
    )

    # Persist the reproduced figure.
    to_json_file(result.to_dict(), results_dir / "figure1.json")
    save_text(results_dir / "figure1.txt", result.format_table())
    print()
    print(result.format_table())

    levels = result.levels()
    assert levels == list(range(8)), "Figure 1 has information levels I9,0 .. I9,7"

    # RER decreases with epsilon for every level (paper: all curves fall as eps grows).
    for level in levels:
        series = result.series_for(level)
        assert series[0] > series[-1]

    # RER is monotone non-decreasing in the information level at every epsilon.
    for index in range(len(result.epsilons)):
        column = [result.series_for(level)[index] for level in levels]
        assert all(b >= a - 1e-12 for a, b in zip(column, column[1:]))

    # The coarsest level is much worse than the finest (paper: 35% vs 0.2%).
    assert result.rer_at(7, 1.0) > 5 * result.rer_at(0, 1.0)


def test_bench_figure1_analytic_fast_path(benchmark, bench_graph, bench_hierarchy, results_dir):
    """Time the closed-form (deterministic) variant used by regression tests."""
    config = Figure1Config(num_levels=9, scale=BENCH_SCALE, seed=BENCH_SEED)
    result = benchmark.pedantic(
        run_figure1_analytic,
        kwargs={"graph": bench_graph, "config": config, "hierarchy": bench_hierarchy},
        rounds=1,
        iterations=1,
    )
    to_json_file(result.to_dict(), results_dir / "figure1_analytic.json")
    # Analytic expected RER scales exactly as 1/epsilon.
    for level in result.levels():
        series = result.series_for(level)
        assert series[0] / series[-1] == (
            result.epsilons[-1] / result.epsilons[0]
        ) or abs(series[0] / series[-1] - result.epsilons[-1] / result.epsilons[0]) < 1e-6
