"""Reproduction harness for the paper's Figure 1 ("Impact of εg").

Figure 1 plots the relative error rate (RER) of the noisy association-count
answer against the group privacy budget ``εg ∈ {0.1, ..., 1.0}``, with one
curve per information level ``I9,0 ... I9,7`` of a 9-level hierarchy built
over the DBLP association graph.

The harness mirrors the pipeline exactly, and calibrates through the
pipeline's own code:

1. build the group hierarchy once with the Exponential-Mechanism specializer;
2. compute the group-level sensitivity of the count query at every released
   level with :func:`~repro.core.pipeline.calibrated_sensitivity`, the
   function the calibrate stages call;
3. for every ``εg`` draw noise at the scale of the mechanism a release would
   build (:func:`~repro.core.common.build_mechanism`) and report the RER
   (mean over ``num_trials`` independent draws), or — in the
   :func:`run_figure1_analytic` variant — report the mechanism's closed-form
   expected RER, which is deterministic and is what the regression tests
   assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.common import build_mechanism, normalise_workload
from repro.core.pipeline import calibrated_sensitivity
from repro.core.release import MultiLevelRelease
from repro.datasets.registry import load_dataset
from repro.evaluation.metrics import expected_rer_gaussian, expected_rer_laplace
from repro.exceptions import EvaluationError
from repro.execution import ExecutorSpec, executor_scope
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.specialization import SpecializationConfig, Specializer
from repro.mechanisms.base import NumericMechanism
from repro.utils.rng import RandomState, as_rng, derive_rng

#: The εg values on the x-axis of Figure 1.
PAPER_EPSILONS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: The εg value quoted in the paper's narrative ("when εg = 0.999 ...").
PAPER_TEXT_EPSILON: float = 0.999


@dataclass
class Figure1Config:
    """Parameters of a Figure 1 reproduction run.

    Where the trials run is not a parameter of the figure: only
    :func:`run_figure1_trials` fans out, and it takes its executor as an
    argument.
    """

    epsilons: Tuple[float, ...] = PAPER_EPSILONS
    num_levels: int = 9
    num_trials: int = 25
    delta: float = 1e-5
    mechanism: str = "gaussian"
    dataset: str = "dblp"
    scale: str = "small"
    specialization_epsilon: float = 1.0
    seed: int = 20170605

    def release_levels(self) -> List[int]:
        """The information levels plotted in the figure: ``I_{L,0} .. I_{L,L-2}``."""
        return list(range(0, self.num_levels - 1))

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "epsilons": list(self.epsilons),
            "num_levels": self.num_levels,
            "num_trials": self.num_trials,
            "delta": self.delta,
            "mechanism": self.mechanism,
            "dataset": self.dataset,
            "scale": self.scale,
            "specialization_epsilon": self.specialization_epsilon,
            "seed": self.seed,
        }


@dataclass
class Figure1Result:
    """The reproduced figure: one RER series per information level."""

    epsilons: List[float]
    series: Dict[int, List[float]]
    true_count: float
    sensitivities: Dict[int, float]
    num_levels: int
    config: dict = field(default_factory=dict)

    def information_level_name(self, level: int) -> str:
        """The paper's curve label, e.g. ``"I9,3"``."""
        return f"I{self.num_levels},{level}"

    def levels(self) -> List[int]:
        """Released levels, ascending."""
        return sorted(self.series)

    def series_for(self, level: int) -> List[float]:
        """The RER values of one level across the epsilon sweep."""
        if level not in self.series:
            raise EvaluationError(f"level {level} not in result (has {self.levels()})")
        return list(self.series[level])

    def rer_at(self, level: int, epsilon: float) -> float:
        """The RER of one level at one epsilon."""
        values = self.series_for(level)
        for eps, value in zip(self.epsilons, values):
            if abs(eps - epsilon) < 1e-12:
                return value
        raise EvaluationError(f"epsilon {epsilon} not in sweep {self.epsilons}")

    def as_rows(self) -> List[dict]:
        """Long-format rows (one per level x epsilon), convenient for tables."""
        rows = []
        for level in self.levels():
            for eps, rer in zip(self.epsilons, self.series[level]):
                rows.append(
                    {
                        "information_level": self.information_level_name(level),
                        "level": level,
                        "epsilon_g": eps,
                        "rer": rer,
                        "sensitivity": self.sensitivities.get(level),
                    }
                )
        return rows

    def format_table(self, percent: bool = True) -> str:
        """A text table shaped like the figure: one row per εg, one column per level."""
        levels = self.levels()
        header = ["eps_g"] + [self.information_level_name(level) for level in levels]
        lines = ["\t".join(header)]
        for index, eps in enumerate(self.epsilons):
            cells = [f"{eps:.3g}"]
            for level in levels:
                value = self.series[level][index]
                cells.append(f"{100.0 * value:.3f}%" if percent else f"{value:.6f}")
            lines.append("\t".join(cells))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "epsilons": list(self.epsilons),
            "series": {str(level): list(values) for level, values in self.series.items()},
            "true_count": self.true_count,
            "sensitivities": {str(level): value for level, value in self.sensitivities.items()},
            "num_levels": self.num_levels,
            "config": dict(self.config),
        }


def build_figure1_hierarchy(
    graph: BipartiteGraph, config: Figure1Config, rng: RandomState = None
) -> GroupHierarchy:
    """Run the phase-1 specialization used by the figure (9 levels, 4-way splits)."""
    spec_config = SpecializationConfig(
        num_levels=config.num_levels,
        epsilon=config.specialization_epsilon,
        include_individual_level=True,
    )
    specializer = Specializer(config=spec_config, rng=rng if rng is not None else config.seed)
    return specializer.build(graph).hierarchy


def level_sensitivities(
    graph: BipartiteGraph, hierarchy: GroupHierarchy, levels: Sequence[int]
) -> Dict[int, float]:
    """Group-level sensitivity of the association count at each level.

    The pipeline's calibration applied to the paper workload; for that
    scalar count query the L1 and L2 sensitivities coincide, so the value
    holds for every mechanism the figure plots.
    """
    workload = normalise_workload(None)
    return {
        level: calibrated_sensitivity(workload, graph, "gaussian", hierarchy.partition_at(level))
        for level in levels
        if hierarchy.has_level(level)
    }


def _mechanism(config: Figure1Config, epsilon: float, sensitivity: float) -> NumericMechanism:
    """The mechanism a release of one level at ``epsilon`` perturbs with."""
    if config.mechanism not in ("gaussian", "laplace"):
        raise EvaluationError(
            f"figure 1 harness supports 'gaussian' and 'laplace', got {config.mechanism!r}"
        )
    return build_mechanism(config.mechanism, epsilon, sensitivity, delta=config.delta)


def run_figure1(
    graph: Optional[BipartiteGraph] = None,
    config: Optional[Figure1Config] = None,
    hierarchy: Optional[GroupHierarchy] = None,
    rng: RandomState = None,
) -> Figure1Result:
    """Reproduce Figure 1 by Monte-Carlo sampling of the calibrated noise.

    Parameters
    ----------
    graph:
        The association graph; defaults to the configured synthetic dataset.
    config:
        A :class:`Figure1Config`; defaults mirror the paper's sweep.
    hierarchy:
        Reuse an existing hierarchy (skips specialization).
    rng:
        Seed / generator for the noise draws (defaults to ``config.seed``).
    """
    config = config if config is not None else Figure1Config()
    if graph is None:
        graph = load_dataset(config.dataset, config.scale, seed=config.seed)
    if hierarchy is None:
        hierarchy = build_figure1_hierarchy(graph, config, rng=derive_rng(config.seed, "figure1-spec"))
    noise_rng = as_rng(rng if rng is not None else derive_rng(config.seed, "figure1-noise"))

    true_count = float(graph.num_associations())
    if true_count <= 0:
        raise EvaluationError("the graph has no associations; RER is undefined")
    levels = [level for level in config.release_levels() if hierarchy.has_level(level)]
    sensitivities = level_sensitivities(graph, hierarchy, levels)

    # Common random numbers across levels: one batch of unit-scale noise per
    # epsilon, rescaled by each level's calibrated scale.  This is the
    # standard variance-reduction trick for comparing configurations and
    # keeps the sampled curves ordered by level exactly as the analytic
    # expectations are.  The whole (epsilon x trial) matrix comes from one
    # generator call; numpy fills batched draws sequentially from the same
    # bit stream, so its rows equal the per-epsilon draws that
    # ``tests/golden/figure1_small.json`` was generated with.  (For a
    # Monte-Carlo over *both* pipeline phases with per-trial derived
    # streams, see :func:`run_figure1_trials`.)
    draw = noise_rng.normal if config.mechanism == "gaussian" else noise_rng.laplace
    unit_matrix = draw(0.0, 1.0, size=(len(config.epsilons), config.num_trials))

    series: Dict[int, List[float]] = {level: [] for level in levels}
    for epsilon, unit_noise in zip(config.epsilons, unit_matrix):
        mean_unit_magnitude = float(np.mean(np.abs(unit_noise)))
        for level in levels:
            scale = _mechanism(config, epsilon, sensitivities[level]).noise_scale()
            series[level].append(mean_unit_magnitude * scale / true_count)
    return Figure1Result(
        epsilons=list(config.epsilons),
        series=series,
        true_count=true_count,
        sensitivities=sensitivities,
        num_levels=config.num_levels,
        config=config.to_dict(),
    )


def run_figure1_analytic(
    graph: Optional[BipartiteGraph] = None,
    config: Optional[Figure1Config] = None,
    hierarchy: Optional[GroupHierarchy] = None,
) -> Figure1Result:
    """Deterministic variant of :func:`run_figure1` using closed-form expected RER.

    ``E[RER] = E[|noise|] / T`` — for Gaussian noise ``sigma * sqrt(2/pi) / T``,
    for Laplace noise ``b / T`` (the mechanism's ``expected_absolute_error()``
    over ``T``).  Used by the regression tests and the quick
    benchmark mode because it has no Monte-Carlo variance.
    """
    config = config if config is not None else Figure1Config()
    if graph is None:
        graph = load_dataset(config.dataset, config.scale, seed=config.seed)
    if hierarchy is None:
        hierarchy = build_figure1_hierarchy(graph, config, rng=derive_rng(config.seed, "figure1-spec"))

    true_count = float(graph.num_associations())
    if true_count <= 0:
        raise EvaluationError("the graph has no associations; RER is undefined")
    levels = [level for level in config.release_levels() if hierarchy.has_level(level)]
    sensitivities = level_sensitivities(graph, hierarchy, levels)

    series: Dict[int, List[float]] = {level: [] for level in levels}
    for epsilon in config.epsilons:
        for level in levels:
            mechanism = _mechanism(config, epsilon, sensitivities[level])
            series[level].append(mechanism.expected_absolute_error() / true_count)
    return Figure1Result(
        epsilons=list(config.epsilons),
        series=series,
        true_count=true_count,
        sensitivities=sensitivities,
        num_levels=config.num_levels,
        config=config.to_dict(),
    )


# ----------------------------------------------------------------------
# Full-pipeline Monte-Carlo (per-trial derived streams, executor-parallel)
# ----------------------------------------------------------------------
def _figure1_trial(trial: int, graph: BipartiteGraph, config: Figure1Config) -> Dict[str, Any]:
    """One independent end-to-end Figure-1 trial (executor task).

    Re-runs *both* pipeline phases — a fresh Exponential-Mechanism
    specialization, fresh sensitivities, fresh noise — from streams derived
    via ``derive_rng(seed, "figure1-trial-<index>-...")``.  Keying every
    stream by the trial index (rather than advancing one shared generator
    trial after trial) is what makes a serial run and any parallel execution
    order produce identical results.
    """
    spec_rng = derive_rng(config.seed, f"figure1-trial-{trial}-spec")
    hierarchy = build_figure1_hierarchy(graph, config, rng=spec_rng)
    levels = [level for level in config.release_levels() if hierarchy.has_level(level)]
    sensitivities = level_sensitivities(graph, hierarchy, levels)
    true_count = float(graph.num_associations())

    noise_rng = derive_rng(config.seed, f"figure1-trial-{trial}-noise")
    draw = noise_rng.normal if config.mechanism == "gaussian" else noise_rng.laplace
    unit = draw(0.0, 1.0, size=(len(config.epsilons), len(levels)))
    series = {
        level: [
            abs(float(unit[eps_index][level_index]))
            * _mechanism(config, epsilon, sensitivities[level]).noise_scale()
            / true_count
            for eps_index, epsilon in enumerate(config.epsilons)
        ]
        for level_index, level in enumerate(levels)
    }
    return {"levels": levels, "sensitivities": sensitivities, "series": series}


def run_figure1_trials(
    graph: Optional[BipartiteGraph] = None,
    config: Optional[Figure1Config] = None,
    executor: ExecutorSpec = None,
) -> Figure1Result:
    """Monte-Carlo Figure 1 over the *full* pipeline, one task per trial.

    Unlike :func:`run_figure1` (which conditions on a single hierarchy and
    only samples the noise), every trial here re-runs specialization,
    sensitivity calibration and noise injection with its own derived random
    streams, then the per-level RER is averaged across trials.  Trials are
    completely independent, so they fan out through ``executor`` (an
    :class:`~repro.execution.Executor` or its name, serial by default; pass
    an instance such as ``ProcessExecutor(max_workers=4)`` to size the pool)
    — ``executor="process"`` distributes them across cores with
    bit-identical results (``benchmarks/test_bench_parallel.py``
    records the speedup).
    """
    config = config if config is not None else Figure1Config()
    if graph is None:
        graph = load_dataset(config.dataset, config.scale, seed=config.seed)
    true_count = float(graph.num_associations())
    if true_count <= 0:
        raise EvaluationError("the graph has no associations; RER is undefined")

    task = partial(_figure1_trial, graph=graph, config=config)
    with executor_scope(executor) as pool:
        trials = pool.map(task, list(range(config.num_trials)))
    if not trials:
        raise EvaluationError("num_trials must be >= 1")

    levels = trials[0]["levels"]
    for outcome in trials[1:]:
        if outcome["levels"] != levels:
            raise EvaluationError(
                "trials produced different level sets; increase the graph size "
                f"({outcome['levels']} vs {levels})"
            )
    series = {
        level: [
            float(np.mean([outcome["series"][level][eps_index] for outcome in trials]))
            for eps_index in range(len(config.epsilons))
        ]
        for level in levels
    }
    mean_sensitivities = {
        level: float(np.mean([outcome["sensitivities"][level] for outcome in trials]))
        for level in levels
    }
    return Figure1Result(
        epsilons=list(config.epsilons),
        series=series,
        true_count=true_count,
        sensitivities=mean_sensitivities,
        num_levels=config.num_levels,
        config=config.to_dict(),
    )


# ----------------------------------------------------------------------
# Re-rendering metrics from a persisted release
# ----------------------------------------------------------------------
def figure1_metrics_from_release(
    release: MultiLevelRelease, true_count: Optional[float] = None
) -> List[Dict[str, Any]]:
    """Figure-1-style per-level metrics recomputed from a stored release.

    Only published information is used: the noise scale, sensitivity and
    guarantee of each level, and — when ``true_count`` is not supplied — the
    *released noisy* total association count as the RER denominator (an
    estimate, since the true count is exactly what the release protects).
    This is how ``repro report`` re-renders metrics from a
    :class:`~repro.core.store.ReleaseStore` without re-disclosing.
    """
    rows: List[Dict[str, Any]] = []
    for level in release.levels():
        view = release.level(level)
        denominator = true_count
        if denominator is None and "total_association_count" in view.answers:
            denominator = abs(view.scalar_answer("total_association_count"))
        if denominator:
            if view.mechanism in ("gaussian", "analytic_gaussian"):
                expected = expected_rer_gaussian(view.noise_scale, denominator)
            else:
                expected = expected_rer_laplace(view.noise_scale, denominator)
        else:
            expected = None
        rows.append(
            {
                "level": level,
                "mechanism": view.mechanism,
                "epsilon": view.guarantee.epsilon,
                "delta": view.guarantee.delta,
                "noise_scale": view.noise_scale,
                "sensitivity": view.sensitivity,
                "num_groups": getattr(view.guarantee, "num_groups", None),
                "expected_rer": expected,
            }
        )
    return rows
