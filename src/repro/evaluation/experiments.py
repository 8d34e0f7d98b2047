"""Experiment registry: one runner per table/figure in DESIGN.md.

Each runner is an importable function that produces plain rows (lists of
dictionaries) so the same code backs the pytest benchmarks, the examples and
ad-hoc exploration.  ``EXPERIMENTS`` maps the experiment identifiers used in
DESIGN.md (E1 ... E6) to their runners.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.store import ReleaseStore
from repro.baselines.individual_dp import IndividualDPDiscloser
from repro.baselines.naive_group import NaiveGroupDPDiscloser
from repro.baselines.safe_grouping import SafeGroupingDiscloser
from repro.baselines.uniform_noise import UniformNoiseDiscloser
from repro.core.common import build_mechanism
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.datasets.registry import load_dataset
from repro.evaluation.figure1 import (
    PAPER_TEXT_EPSILON,
    Figure1Config,
    Figure1Result,
    build_figure1_hierarchy,
    level_sensitivities,
    run_figure1,
    run_figure1_analytic,
)
from repro.evaluation.metrics import release_error_report
from repro.evaluation.scalability import ScalabilityResult, run_scalability
from repro.exceptions import EvaluationError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.specialization import (
    DeterministicSpecializer,
    RandomSpecializer,
    SpecializationConfig,
    Specializer,
)


# ----------------------------------------------------------------------
# E1 — Figure 1: RER vs epsilon_g per information level
# ----------------------------------------------------------------------
def run_e1_figure1(
    scale: str = "small",
    analytic: bool = True,
    num_levels: int = 9,
    num_trials: int = 25,
    seed: int = 20170605,
    graph: Optional[BipartiteGraph] = None,
) -> Figure1Result:
    """Reproduce Figure 1 (analytic expected RER by default)."""
    config = Figure1Config(num_levels=num_levels, num_trials=num_trials, scale=scale, seed=seed)
    if analytic:
        return run_figure1_analytic(graph=graph, config=config)
    return run_figure1(graph=graph, config=config)


# ----------------------------------------------------------------------
# E2 — the narrative claims at epsilon_g = 0.999
# ----------------------------------------------------------------------
#: RER values the paper quotes at eps_g = 0.999, per information level.
PAPER_TEXT_CLAIMS: Dict[int, float] = {1: 0.002, 2: 0.0033, 5: 0.04, 6: 0.11, 7: 0.35}


def run_e2_text_claims(
    scale: str = "small",
    num_levels: int = 9,
    seed: int = 20170605,
    graph: Optional[BipartiteGraph] = None,
) -> List[Dict[str, Any]]:
    """RER of every information level at the paper's quoted ``eps_g = 0.999``.

    Returns one row per level with our measured (expected) RER next to the
    value quoted in the paper where one exists.
    """
    config = Figure1Config(
        epsilons=(PAPER_TEXT_EPSILON,), num_levels=num_levels, scale=scale, seed=seed
    )
    result = run_figure1_analytic(graph=graph, config=config)
    rows: List[Dict[str, Any]] = []
    for level in result.levels():
        rows.append(
            {
                "information_level": result.information_level_name(level),
                "level": level,
                "epsilon_g": PAPER_TEXT_EPSILON,
                "measured_rer": result.series_for(level)[0],
                "paper_rer": PAPER_TEXT_CLAIMS.get(level),
                "sensitivity": result.sensitivities[level],
            }
        )
    return rows


# ----------------------------------------------------------------------
# E3 — scalability
# ----------------------------------------------------------------------
def run_e3_scalability(
    author_counts: Sequence[int] = (500, 1_000, 2_000),
    num_levels: int = 6,
    epsilon_g: float = 0.5,
    seed: int = 3,
) -> ScalabilityResult:
    """Time specialization + noise injection over increasing graph sizes."""
    return run_scalability(
        author_counts=author_counts, num_levels=num_levels, epsilon_g=epsilon_g, seed=seed
    )


# ----------------------------------------------------------------------
# E4 — ablation: split selection strategy
# ----------------------------------------------------------------------
def run_e4_ablation_split(
    scale: str = "tiny",
    num_levels: int = 6,
    epsilon_g: float = 0.5,
    delta: float = 1e-5,
    seed: int = 11,
    graph: Optional[BipartiteGraph] = None,
) -> List[Dict[str, Any]]:
    """Compare Exponential-Mechanism, deterministic and random specialization.

    For every method the hierarchy is rebuilt from scratch and the expected
    RER of the count query is reported per released level, together with the
    specialization privacy cost.
    """
    if graph is None:
        graph = load_dataset("dblp", scale, seed=seed)
    true_count = float(graph.num_associations())
    spec_config = SpecializationConfig(num_levels=num_levels)
    methods = {
        "exponential": Specializer(config=spec_config, rng=seed),
        "deterministic": DeterministicSpecializer(config=spec_config, rng=seed),
        "random": RandomSpecializer(config=spec_config, rng=seed),
    }
    rows: List[Dict[str, Any]] = []
    for name, specializer in methods.items():
        result = specializer.build(graph)
        hierarchy = result.hierarchy
        levels = [level for level in range(0, num_levels - 1) if hierarchy.has_level(level)]
        sensitivities = level_sensitivities(graph, hierarchy, levels)
        for level in levels:
            mechanism = build_mechanism("gaussian", epsilon_g, sensitivities[level], delta=delta)
            rows.append(
                {
                    "method": name,
                    "level": level,
                    "epsilon_g": epsilon_g,
                    "sensitivity": sensitivities[level],
                    "expected_rer": mechanism.expected_absolute_error() / true_count,
                    "specialization_epsilon": result.privacy_cost.epsilon,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E5 — ablation: phase-2 mechanism and budget allocation
# ----------------------------------------------------------------------
def run_e5_ablation_mechanism(
    scale: str = "tiny",
    num_levels: int = 6,
    epsilon_g: float = 0.5,
    delta: float = 1e-5,
    seed: int = 13,
    graph: Optional[BipartiteGraph] = None,
) -> List[Dict[str, Any]]:
    """Compare Gaussian / analytic-Gaussian / Laplace noise and budget allocations.

    The mechanism comparison uses the paper's per-level budget semantics; the
    allocation comparison spreads a single total ``epsilon_g`` over all levels
    with the three strategies from :mod:`repro.accounting.allocation`.
    """
    if graph is None:
        graph = load_dataset("dblp", scale, seed=seed)
    true_count = float(graph.num_associations())
    config = Figure1Config(num_levels=num_levels, scale=scale, seed=seed)
    hierarchy = build_figure1_hierarchy(graph, config, rng=seed)
    levels = [level for level in range(0, num_levels - 1) if hierarchy.has_level(level)]
    sensitivities = level_sensitivities(graph, hierarchy, levels)

    rows: List[Dict[str, Any]] = []
    for mechanism in ("gaussian", "analytic_gaussian", "laplace"):
        for level in levels:
            calibrated = build_mechanism(mechanism, epsilon_g, sensitivities[level], delta=delta)
            rows.append(
                {
                    "comparison": "mechanism",
                    "variant": mechanism,
                    "level": level,
                    "epsilon_g": epsilon_g,
                    "noise_scale": calibrated.noise_scale(),
                    "expected_rer": calibrated.expected_absolute_error() / true_count,
                }
            )

    from repro.accounting.allocation import make_allocation

    for allocation in ("uniform", "geometric", "proportional"):
        strategy = make_allocation(allocation) if allocation != "geometric" else make_allocation(allocation, ratio=2.0)
        per_level = strategy.allocate(epsilon_g, levels, sensitivities=sensitivities)
        for level in levels:
            calibrated = build_mechanism("gaussian", per_level[level], sensitivities[level], delta=delta)
            rows.append(
                {
                    "comparison": "allocation",
                    "variant": allocation,
                    "level": level,
                    "epsilon_g": per_level[level],
                    "noise_scale": calibrated.noise_scale(),
                    "expected_rer": calibrated.expected_absolute_error() / true_count,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E6 — baseline comparison
# ----------------------------------------------------------------------
def run_e6_baselines(
    scale: str = "tiny",
    num_levels: int = 6,
    epsilon: float = 0.5,
    delta: float = 1e-5,
    seed: int = 17,
    graph: Optional[BipartiteGraph] = None,
    store: Optional["ReleaseStore"] = None,
) -> List[Dict[str, Any]]:
    """Compare the paper's discloser with the four baselines.

    Reports, per level and per method, the measured RER of the released count
    and the group epsilon actually guaranteed at that level (infinite for the
    non-DP safe-grouping release, enormous for the individual-DP baseline).

    When a :class:`~repro.core.store.ReleaseStore` is given, each DP method's
    multi-level release is persisted under a key of the form
    ``e6-<graph>-<NxMxE>-<scale>-<seed>-l<levels>-eps<epsilon>-d<delta>-<method>``
    (the ``NxMxE`` node/edge counts fingerprint the graph, so a different
    graph — even one with the same name — never resumes from another graph's
    artefacts) and an interrupted run resumes from the stored releases
    instead of re-disclosing (and re-spending budget on) the methods already
    done.  The safe-grouping baseline produces a grouped summary rather than
    a :class:`~repro.core.release.MultiLevelRelease`, so it is recomputed on
    every run.
    """
    if graph is None:
        graph = load_dataset("dblp", scale, seed=seed)
    spec_config = SpecializationConfig(num_levels=num_levels)
    config = DisclosureConfig(epsilon_g=epsilon, delta=delta, specialization=spec_config)
    discloser = MultiLevelDiscloser(config=config, rng=seed)
    hierarchy = discloser.specializer.build(graph).hierarchy
    levels = [level for level in range(0, num_levels - 1) if hierarchy.has_level(level)]

    rows: List[Dict[str, Any]] = []

    def build_release(method: str, builder) -> Any:
        if store is None:
            return builder()
        # The key carries every parameter that shapes the release, including
        # the graph's name and size fingerprint for caller-supplied graphs,
        # so a resumed run can never be served a release disclosed under
        # different settings (or a different graph with the same name).
        fingerprint = f"{graph.num_left()}x{graph.num_right()}x{graph.num_associations()}"
        key = (
            f"e6-{graph.name}-{fingerprint}-{scale}-{seed}-l{num_levels}"
            f"-eps{epsilon}-d{delta}-{method}"
        )
        release, _ = store.get_or_create(key, builder)
        return release

    def add_release_rows(method: str, release) -> None:
        report = release_error_report(release, graph)
        for level in levels:
            if level not in report:
                continue
            guarantee = release.level(level).guarantee
            rows.append(
                {
                    "method": method,
                    "level": level,
                    "rer": report[level]["rer"],
                    "noise_scale": report[level]["noise_scale"],
                    "group_epsilon": guarantee.epsilon,
                    "group_delta": guarantee.delta,
                }
            )

    add_release_rows(
        "group_dp_multilevel",
        build_release(
            "group_dp_multilevel", lambda: discloser.disclose(graph, hierarchy=hierarchy)
        ),
    )
    add_release_rows(
        "naive_group_dp",
        build_release(
            "naive_group_dp",
            lambda: NaiveGroupDPDiscloser(epsilon_g=epsilon, delta=delta, rng=seed).disclose(
                graph, hierarchy, levels=levels
            ),
        ),
    )
    add_release_rows(
        "uniform_noise",
        build_release(
            "uniform_noise",
            lambda: UniformNoiseDiscloser(epsilon_g=epsilon, delta=delta, rng=seed).disclose(
                graph, hierarchy, levels=levels
            ),
        ),
    )
    individual = IndividualDPDiscloser(epsilon_i=epsilon, delta=delta, mechanism="gaussian", rng=seed)
    add_release_rows(
        "individual_dp",
        build_release(
            "individual_dp",
            lambda: individual.as_multi_level_release(graph, hierarchy, levels=levels),
        ),
    )

    safe = SafeGroupingDiscloser(k=3, rng=seed).disclose(graph)
    true_count = float(graph.num_associations())
    safe_error = abs(safe.total_associations() - true_count) / true_count
    for level in levels:
        rows.append(
            {
                "method": "safe_grouping",
                "level": level,
                "rer": safe_error,
                "noise_scale": 0.0,
                "group_epsilon": float("inf"),
                "group_delta": 0.0,
            }
        )
    return rows


EXPERIMENTS: Dict[str, Callable[..., Any]] = {
    "E1": run_e1_figure1,
    "E2": run_e2_text_claims,
    "E3": run_e3_scalability,
    "E4": run_e4_ablation_split,
    "E5": run_e5_ablation_mechanism,
    "E6": run_e6_baselines,
}


def run_experiment(identifier: str, **kwargs) -> Any:
    """Run an experiment by its DESIGN.md identifier (``"E1"`` ... ``"E6"``)."""
    key = identifier.upper()
    if key not in EXPERIMENTS:
        raise EvaluationError(f"unknown experiment {identifier!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[key](**kwargs)
