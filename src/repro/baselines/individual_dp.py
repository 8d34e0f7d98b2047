"""Classical individual-DP release (no group awareness).

This is what a standard DP library would do with the paper's count query:
calibrate to the record-level sensitivity (1 for the association count) and
release a single noisy answer.  It is very accurate — and provides *no*
group-level guarantee beyond the weak one implied by the group-privacy lemma,
which the benchmark harness makes explicit by reporting the implied group
epsilon for each hierarchy level.

The single perturbation runs through the shared staged pipeline
(compile -> calibrate -> perturb) with a one-plan
:class:`IndividualCalibrateStage`; :meth:`as_multi_level_release` then
replicates that answer across the requested levels with the lemma-implied
guarantees.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.common import DiscloseSeedStream, WorkloadLike, build_mechanism, normalise_workload
from repro.core.pipeline import (
    CalibrateStage,
    CompileStage,
    DisclosurePipeline,
    LevelPlan,
    PerturbStage,
    PipelineContext,
)
from repro.core.release import LevelRelease, MultiLevelRelease
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.mechanisms.base import PrivacyCost
from repro.privacy.conversion import group_guarantee_from_individual
from repro.privacy.guarantees import IndividualPrivacyGuarantee, PrivacyUnit
from repro.privacy.sensitivity import group_count_sensitivity
from repro.utils.rng import RandomState
from repro.utils.validation import check_fraction, check_positive


class IndividualCalibrateStage(CalibrateStage):
    """Record-level calibration: one plan covering the whole release."""

    name = "calibrate-individual"
    description = "classical record-level differential privacy"

    def __init__(self, epsilon_i: float, delta: float, mechanism: str):
        self.epsilon_i = epsilon_i
        self.delta = delta
        self.mechanism = mechanism

    def mechanism_for(self, context: PipelineContext) -> str:
        return self.mechanism

    def delta_for(self, context: PipelineContext) -> Optional[float]:
        return self.delta

    def sensitivity_for(self, context: PipelineContext, level: int) -> float:
        if self.mechanism == "gaussian":
            return context.workload.l2_sensitivity(context.graph, adjacency="individual")
        return context.workload.l1_sensitivity(context.graph, adjacency="individual")

    def epsilons_for(self, context: PipelineContext) -> Dict[int, float]:
        return {0: self.epsilon_i}

    def run(self, context: PipelineContext) -> None:
        # No hierarchy: a single pseudo-level plan carries the whole release.
        sensitivity = self.sensitivity_for(context, 0)
        context.sensitivities = {0: sensitivity}
        context.epsilons = self.epsilons_for(context)
        context.plans = [
            LevelPlan(
                level=0,
                epsilon=self.epsilon_i,
                sensitivity=sensitivity,
                mechanism=self.mechanism,
                delta=self.delta,
                noise_seed=context.level_seed(0),
                description=self.description,
            )
        ]


class IndividualDPDiscloser:
    """Release the workload once under record-level differential privacy.

    Parameters
    ----------
    epsilon_i:
        Individual (record-level) budget.
    delta:
        Gaussian delta (ignored for Laplace).
    mechanism:
        ``"laplace"`` (default) or ``"gaussian"``.
    queries:
        Workload; defaults to the paper's total association count.
    rng:
        Seed / generator.
    """

    def __init__(
        self,
        epsilon_i: float = 1.0,
        delta: float = 1e-5,
        mechanism: str = "laplace",
        queries: WorkloadLike = None,
        rng: RandomState = None,
    ):
        self.epsilon_i = check_positive(epsilon_i, "epsilon_i")
        self.delta = check_fraction(delta, "delta")
        if mechanism not in ("laplace", "gaussian"):
            raise ValueError(f"mechanism must be 'laplace' or 'gaussian', got {mechanism!r}")
        self.mechanism = mechanism
        self.workload = normalise_workload(queries, default_name="individual-baseline")
        self._noise_seeds = DiscloseSeedStream(rng, "individual-dp-baseline")

    def disclose(self, graph: BipartiteGraph) -> Dict[str, Dict[str, float]]:
        """Return the noisy workload answers under individual DP."""
        noise_seed = self._noise_seeds.next()
        pipeline = DisclosurePipeline(
            [
                CompileStage(),
                IndividualCalibrateStage(self.epsilon_i, self.delta, self.mechanism),
                PerturbStage(),
            ]
        )
        context = PipelineContext(
            graph=graph,
            workload=self.workload,
            noise_seed=noise_seed,
        )
        return pipeline.run(context).outcomes[0].answers

    def guarantee(self) -> IndividualPrivacyGuarantee:
        """The record-level guarantee of :meth:`disclose`."""
        delta = self.delta if self.mechanism == "gaussian" else 0.0
        return IndividualPrivacyGuarantee(
            epsilon=self.epsilon_i,
            delta=delta,
            unit=PrivacyUnit.ASSOCIATION,
            description="classical record-level differential privacy",
        )

    def implied_group_epsilons(self, graph: BipartiteGraph, hierarchy: GroupHierarchy) -> Dict[int, float]:
        """Group epsilon implied by the group-privacy lemma, per hierarchy level.

        A record-level ``epsilon_i`` release degrades to ``k * epsilon_i`` for
        groups containing ``k`` records; here ``k`` is the largest number of
        associations incident to any group at the level.  These values are
        typically enormous for coarse levels, which is precisely the gap the
        paper's approach closes.
        """
        implied: Dict[int, float] = {}
        for level in hierarchy.level_indices():
            worst_records = group_count_sensitivity(graph, hierarchy.partition_at(level))
            implied[level] = self.epsilon_i * worst_records
        return implied

    def as_multi_level_release(
        self, graph: BipartiteGraph, hierarchy: GroupHierarchy, levels: Optional[Iterable[int]] = None
    ) -> MultiLevelRelease:
        """Package the single individual-DP answer as a pseudo multi-level release.

        Every requested level receives the *same* noisy answers; the per-level
        guarantee records the (weak) group epsilon implied by the lemma so the
        comparison benchmarks can report both error and protection honestly.
        """
        answers = self.disclose(graph)
        implied = self.implied_group_epsilons(graph, hierarchy)
        if levels is None:
            levels = [level for level in hierarchy.level_indices() if level < hierarchy.top_level]
        level_releases: Dict[int, LevelRelease] = {}
        base_delta = self.delta if self.mechanism == "gaussian" else 0.0
        unit_scale = build_mechanism(
            self.mechanism, self.epsilon_i, 1.0, delta=self.delta
        ).noise_scale()
        for level in levels:
            guarantee = group_guarantee_from_individual(
                self.guarantee(), group_size=max(1, int(round(implied[level] / self.epsilon_i))), level=level
            )
            level_releases[level] = LevelRelease(
                level=level,
                answers={name: dict(values) for name, values in answers.items()},
                guarantee=guarantee,
                mechanism=self.mechanism,
                noise_scale=unit_scale,
                sensitivity=1.0,
            )
        return MultiLevelRelease(
            dataset_name=graph.name,
            level_releases=level_releases,
            level_statistics=hierarchy.level_statistics(),
            specialization_cost=PrivacyCost(0.0, 0.0),
            config={"baseline": "individual_dp", "epsilon_i": self.epsilon_i, "delta": base_delta},
        )
