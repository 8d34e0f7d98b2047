"""The staged disclosure pipeline shared by the discloser and the baselines.

The paper's two-phase procedure decomposes into five explicit stages:

1. :class:`SpecializeStage` — build the group hierarchy (phase 1), unless the
   caller supplied one;
2. :class:`CompileStage` — compile the graph's array view, resolve the
   released levels and evaluate the true workload answers once;
3. :class:`CalibrateStage` — compute each level's sensitivity and epsilon,
   freeze them into picklable :class:`LevelPlan` payloads, one per level,
   each carrying its own derived noise seed, and fingerprint every plan
   once (:func:`level_fingerprints_for`);
4. :class:`PerturbStage` — map :func:`perturb_level` over the plans in a
   plain loop (one noise draw per level is far too little work to pay for a
   pool; every plan carries its own :class:`~numpy.random.SeedSequence`, so
   a level's noise does not depend on the order the levels run in);
5. :class:`AssembleStage` — charge the ledger, wrap the outcomes in
   guarantees and assemble the :class:`~repro.core.release.MultiLevelRelease`.

A refresh is the same run with :attr:`PipelineContext.previous` set to the
release being refreshed: the perturb stage skips every plan whose fingerprint
matches the previous release's, and the assemble stage reuses those levels'
:class:`~repro.core.release.LevelRelease` objects as they are and records the
lineage in the provenance (see :mod:`repro.core.refresh`).

:class:`MultiLevelDiscloser` and the group-DP baselines all run this one
pipeline; they differ only in which :class:`CalibrateStage` subclass resolves
sensitivities and epsilons (:class:`GroupCalibrateStage` for the paper's
calibration, :class:`WorstCaseCalibrateStage` for the naive lemma bound,
:class:`UniformCalibrateStage` for the coarsest-level strawman).  Every
measured workload sensitivity, released or plotted by the Figure-1 harnesses,
comes from :func:`calibrated_sensitivity`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

import numpy as np

from repro.accounting.allocation import make_allocation
from repro.accounting.budget import BudgetLedger
from repro.core.common import (
    FINGERPRINT_VERSION,
    build_mechanism,
    fingerprint_answers,
    fingerprint_level,
    fingerprint_partition,
    legacy_fingerprint_partition,
    uses_l2_sensitivity,
)
from repro.core.release import LevelRelease, MultiLevelRelease
from repro.exceptions import DisclosureError
from repro.graphs.arrays import GraphArrays
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.partition import Partition
from repro.grouping.specialization import Specializer
from repro.mechanisms.base import PrivacyCost
from repro.privacy.guarantees import GroupPrivacyGuarantee, PrivacyUnit
from repro.privacy.sensitivity import node_count_sensitivity, scale_sensitivity
from repro.queries.base import QueryAnswer
from repro.queries.workload import QueryWorkload, noisy_workload_answers
from repro.utils.rng import derive_seedseq

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import DisclosureConfig


# ----------------------------------------------------------------------
# The calibration rule
# ----------------------------------------------------------------------
def calibrated_sensitivity(
    workload: QueryWorkload,
    graph: BipartiteGraph,
    mechanism: str,
    partition: Optional[Partition] = None,
) -> float:
    """The sensitivity a level's noise is calibrated to.

    The workload's L2 sensitivity for the Gaussian family and its L1
    sensitivity otherwise (:func:`~repro.core.common.uses_l2_sensitivity`),
    under group adjacency over ``partition``, or record-level adjacency when
    ``partition`` is ``None``.  The calibrate stages and the Figure-1
    harnesses all call this one function, so a released level and its
    plotted error always share one noise scale.
    """
    adjacency = "individual" if partition is None else "group"
    if uses_l2_sensitivity(mechanism):
        return workload.l2_sensitivity(graph, adjacency=adjacency, partition=partition)
    return workload.l1_sensitivity(graph, adjacency=adjacency, partition=partition)


# ----------------------------------------------------------------------
# Task payloads
# ----------------------------------------------------------------------
@dataclass
class LevelPlan:
    """Everything one level's perturbation task needs, frozen and picklable.

    The plan carries only plain scalars plus a derived
    :class:`~numpy.random.SeedSequence`, so a level draws exactly the same
    noise whether it is perturbed in a fresh disclosure or re-perturbed by a
    refresh.
    """

    level: int
    epsilon: float
    sensitivity: float
    mechanism: str
    delta: Optional[float] = None
    num_groups: int = 0
    max_group_size: int = 0
    noise_seed: Optional[np.random.SeedSequence] = None
    description: str = ""


@dataclass
class LevelOutcome:
    """What one perturbation task hands back to the assemble stage."""

    level: int
    answers: Dict[str, Dict[str, float]]
    cost: PrivacyCost
    noise_scale: float


def perturb_level(plan: LevelPlan, true_answers: Dict[str, QueryAnswer]) -> LevelOutcome:
    """Perturb the workload answers for one level plan.

    Pure: the only randomness comes from the plan's own seed, so the result
    is independent of which other levels run alongside it.
    """
    mechanism = build_mechanism(
        plan.mechanism, plan.epsilon, plan.sensitivity, delta=plan.delta, rng=plan.noise_seed
    )
    answers = noisy_workload_answers(mechanism, true_answers)
    return LevelOutcome(
        level=plan.level,
        answers=answers,
        cost=mechanism.privacy_cost(),
        noise_scale=mechanism.noise_scale(),
    )


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------
@dataclass
class PipelineContext:
    """Mutable state threaded through the pipeline stages.

    Callers populate the input fields (graph, workload, hierarchy or
    specializer, seeds, and for a refresh the previous release); stages fill
    in the products, ending with :attr:`release`.
    """

    graph: BipartiteGraph
    workload: Optional[QueryWorkload] = None
    hierarchy: Optional[GroupHierarchy] = None
    specializer: Optional[Specializer] = None
    ledger: Optional[BudgetLedger] = None
    noise_seed: Optional[np.random.SeedSequence] = None
    requested_levels: Optional[Sequence[int]] = None
    #: When true, a requested level absent from the hierarchy is an error
    #: (set by the baselines for caller-supplied level lists); when false,
    #: missing levels are dropped (the discloser's config-derived defaults).
    strict_levels: bool = False
    config: Optional["DisclosureConfig"] = None
    release_config: Dict[str, Any] = field(default_factory=dict)
    #: The release a refresh diffs against (``None`` for a fresh disclosure).
    previous: Optional[MultiLevelRelease] = None
    #: The graph revision stamped into the provenance (default: the graph's).
    revision: Optional[int] = None

    # Stage products.
    arrays: Optional[GraphArrays] = None
    levels: List[int] = field(default_factory=list)
    true_answers: Optional[Dict[str, QueryAnswer]] = None
    sensitivities: Dict[int, float] = field(default_factory=dict)
    epsilons: Dict[int, float] = field(default_factory=dict)
    plans: List[LevelPlan] = field(default_factory=list)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Levels whose previous release is kept as it is (refresh only).
    reused_levels: List[int] = field(default_factory=list)
    outcomes: List[LevelOutcome] = field(default_factory=list)
    specialization_cost: PrivacyCost = field(default_factory=lambda: PrivacyCost(0.0, 0.0))
    release: Optional[MultiLevelRelease] = None

    def charge(self, cost: PrivacyCost, label: str) -> None:
        """Record a privacy spend when a ledger is attached."""
        if self.ledger is not None:
            self.ledger.charge(cost, label=label)

    def level_seed(self, level: int) -> Optional[np.random.SeedSequence]:
        """The per-level noise seed (``None`` propagates fresh entropy)."""
        if self.noise_seed is None:
            return None
        return derive_seedseq(self.noise_seed, f"level-{level}")


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
class PipelineStage(abc.ABC):
    """One step of the staged pipeline; mutates the context in place."""

    name: str = "stage"

    @abc.abstractmethod
    def run(self, context: PipelineContext) -> None:
        """Execute the stage against ``context``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SpecializeStage(PipelineStage):
    """Phase 1: build the group hierarchy unless one was supplied."""

    name = "specialize"

    def run(self, context: PipelineContext) -> None:
        if context.hierarchy is not None:
            return
        if context.specializer is None:
            raise DisclosureError("no hierarchy given and no specializer configured")
        result = context.specializer.build(context.graph)
        context.hierarchy = result.hierarchy
        context.specialization_cost = result.privacy_cost
        context.charge(result.privacy_cost, "specialization")


class CompileStage(PipelineStage):
    """Compile the array view, resolve levels and evaluate true answers."""

    name = "compile"

    def run(self, context: PipelineContext) -> None:
        context.arrays = context.graph.arrays()
        if context.hierarchy is not None:
            if context.requested_levels is not None:
                requested = list(context.requested_levels)
            else:
                requested = [
                    level
                    for level in context.hierarchy.level_indices()
                    if level < context.hierarchy.top_level
                ]
            levels = [level for level in requested if context.hierarchy.has_level(level)]
            if context.strict_levels and len(levels) != len(requested):
                missing = [level for level in requested if not context.hierarchy.has_level(level)]
                raise DisclosureError(
                    f"requested levels {missing} do not exist in the hierarchy "
                    f"(available: {context.hierarchy.level_indices()})"
                )
            if not levels:
                raise DisclosureError(
                    f"none of the requested levels {requested} exist in the hierarchy "
                    f"(available: {context.hierarchy.level_indices()})"
                )
            context.levels = levels
        if context.workload is not None:
            context.true_answers = context.workload.evaluate_batch(
                context.graph, arrays=context.arrays
            )


class CalibrateStage(PipelineStage):
    """Resolve per-level sensitivities/epsilons, freeze and fingerprint the plans.

    Subclasses define the calibration policy via :meth:`sensitivity_for`,
    :meth:`epsilons_for` and the released mechanism/delta/description.
    """

    name = "calibrate"

    #: Description template for the per-level guarantee.
    description = "group differential privacy at hierarchy level {level} ({num_groups} groups)"

    @abc.abstractmethod
    def mechanism_for(self, context: PipelineContext) -> str:
        """Name of the mechanism this calibration targets."""

    @abc.abstractmethod
    def delta_for(self, context: PipelineContext) -> Optional[float]:
        """The delta handed to the mechanism builder (ignored by pure DP)."""

    @abc.abstractmethod
    def sensitivity_for(self, context: PipelineContext, level: int) -> float:
        """The sensitivity the level's noise is calibrated to."""

    @abc.abstractmethod
    def epsilons_for(self, context: PipelineContext) -> Dict[int, float]:
        """Mapping ``level -> epsilon`` for every released level."""

    def run(self, context: PipelineContext) -> None:
        if context.hierarchy is None:
            raise DisclosureError("calibration requires a hierarchy")
        context.sensitivities = {
            level: self.sensitivity_for(context, level) for level in context.levels
        }
        context.epsilons = self.epsilons_for(context)
        mechanism = self.mechanism_for(context)
        delta = self.delta_for(context)
        plans: List[LevelPlan] = []
        for level in context.levels:
            partition = context.hierarchy.partition_at(level)
            num_groups = partition.num_groups()
            max_group_size = partition.max_group_size()
            plans.append(
                LevelPlan(
                    level=level,
                    epsilon=context.epsilons[level],
                    sensitivity=context.sensitivities[level],
                    mechanism=mechanism,
                    delta=delta,
                    num_groups=num_groups,
                    max_group_size=max_group_size,
                    noise_seed=context.level_seed(level),
                    description=self.description.format(level=level, num_groups=num_groups),
                )
            )
        context.plans = plans
        context.fingerprints = level_fingerprints_for(context)


class GroupCalibrateStage(CalibrateStage):
    """The paper's calibration: measured group-level workload sensitivity.

    Reads the :class:`~repro.core.config.DisclosureConfig` on the context for
    the mechanism family, the budget mode and the allocation strategy.
    """

    name = "calibrate-group"

    def _config(self, context: PipelineContext) -> "DisclosureConfig":
        if context.config is None:
            raise DisclosureError("GroupCalibrateStage requires context.config")
        return context.config

    def mechanism_for(self, context: PipelineContext) -> str:
        return self._config(context).mechanism

    def delta_for(self, context: PipelineContext) -> Optional[float]:
        return self._config(context).delta

    def sensitivity_for(self, context: PipelineContext, level: int) -> float:
        return calibrated_sensitivity(
            context.workload,
            context.graph,
            self._config(context).mechanism,
            context.hierarchy.partition_at(level),
        )

    def epsilons_for(self, context: PipelineContext) -> Dict[int, float]:
        config = self._config(context)
        if config.budget_mode == "per_level":
            return {level: config.epsilon_g for level in context.levels}
        strategy_kwargs = {}
        if config.allocation == "geometric":
            strategy_kwargs["ratio"] = config.allocation_ratio
        strategy = make_allocation(config.allocation, **strategy_kwargs)
        return strategy.allocate(
            config.epsilon_g, context.levels, sensitivities=context.sensitivities
        )


class FixedEpsilonCalibrateStage(CalibrateStage):
    """Base for baselines that release every level at one fixed epsilon."""

    def __init__(self, epsilon: float, delta: Optional[float], mechanism: str):
        self.epsilon = epsilon
        self.delta = delta
        self.mechanism = mechanism

    def mechanism_for(self, context: PipelineContext) -> str:
        return self.mechanism

    def delta_for(self, context: PipelineContext) -> Optional[float]:
        return self.delta

    def epsilons_for(self, context: PipelineContext) -> Dict[int, float]:
        return {level: self.epsilon for level in context.levels}


def worst_case_group_sensitivity(graph: BipartiteGraph, partition) -> float:
    """The generic group-privacy lemma's ``max group size x max degree`` bound.

    The single definition behind :class:`WorstCaseCalibrateStage` and
    :meth:`repro.baselines.naive_group.NaiveGroupDPDiscloser.level_sensitivity`,
    so the released noise and the documented bound cannot drift apart.
    """
    max_group_size = max(1, partition.max_group_size())
    max_degree = max(1.0, node_count_sensitivity(graph))
    return scale_sensitivity(float(max_group_size), max_degree)


class WorstCaseCalibrateStage(FixedEpsilonCalibrateStage):
    """Naive group DP: the generic lemma's ``max group size x max degree`` bound."""

    name = "calibrate-worst-case"
    description = "naive group DP via the worst-case group-privacy lemma bound"

    def sensitivity_for(self, context: PipelineContext, level: int) -> float:
        return worst_case_group_sensitivity(
            context.graph, context.hierarchy.partition_at(level)
        )


class UniformCalibrateStage(FixedEpsilonCalibrateStage):
    """Uniform-noise strawman: every level gets the coarsest level's noise."""

    name = "calibrate-uniform"
    description = "uniform noise calibrated to the coarsest level"

    def run(self, context: PipelineContext) -> None:
        if context.hierarchy is not None:
            # Every level shares the coarsest level's sensitivity: compute it once.
            coarsest = context.hierarchy.partition_at(max(context.levels))
            self._worst = calibrated_sensitivity(
                context.workload, context.graph, self.mechanism, coarsest
            )
        super().run(context)

    def sensitivity_for(self, context: PipelineContext, level: int) -> float:
        return self._worst


def unchanged_levels(context: PipelineContext) -> List[int]:
    """Planned levels whose previous release can be kept as it is, ascending.

    A level qualifies when the previous release has it and its stored
    fingerprint equals the plan's.  A previous release without fingerprints
    qualifies no level; one stored without a ``fingerprint_version`` carries
    :func:`legacy_fingerprint_partition` digests and is compared against
    legacy fingerprints.  Empty for a fresh disclosure.
    """
    previous = context.previous
    if previous is None:
        return []
    stored = previous.provenance.get("level_fingerprints", {})
    current = context.fingerprints
    if stored and "fingerprint_version" not in previous.provenance:
        current = level_fingerprints_for(context, legacy=True)
    return sorted(
        plan.level
        for plan in context.plans
        if plan.level in previous.level_releases
        and stored.get(str(plan.level)) == current[str(plan.level)]
    )


class PerturbStage(PipelineStage):
    """Phase 2 proper: perturb the planned levels, in plan order.

    A refresh perturbs only the levels :func:`unchanged_levels` does not name;
    those are recorded in :attr:`PipelineContext.reused_levels`.
    """

    name = "perturb"

    def run(self, context: PipelineContext) -> None:
        if context.true_answers is None:
            raise DisclosureError("perturbation requires evaluated true answers")
        context.reused_levels = unchanged_levels(context)
        context.outcomes = [
            perturb_level(plan, context.true_answers)
            for plan in context.plans
            if plan.level not in context.reused_levels
        ]


def level_fingerprints_for(context: PipelineContext, legacy: bool = False) -> Dict[str, str]:
    """Per-level content fingerprints over the context's calibrated plans.

    Keys are stringified level numbers (JSON-safe); values digest everything
    that determines the level's released answers given its derived seed.
    Empty when the context has no hierarchy or evaluated answers (a custom
    pipeline without the compile/calibrate stages).  ``legacy`` digests
    partitions with :func:`legacy_fingerprint_partition`, matching releases
    stored without a ``fingerprint_version``.
    """
    if context.hierarchy is None or context.true_answers is None:
        return {}
    answers_digest = fingerprint_answers(context.true_answers)
    fingerprints: Dict[str, str] = {}
    for plan in context.plans:
        partition = context.hierarchy.partition_at(plan.level)
        fingerprints[str(plan.level)] = fingerprint_level(
            epsilon=plan.epsilon,
            sensitivity=plan.sensitivity,
            mechanism=plan.mechanism,
            delta=plan.delta,
            partition_digest=(
                legacy_fingerprint_partition(partition) if legacy else fingerprint_partition(partition)
            ),
            answers_digest=answers_digest,
        )
    return fingerprints


class AssembleStage(PipelineStage):
    """Charge the ledger, stamp provenance and assemble the release.

    Reused levels (a refresh) keep the previous release's
    :class:`~repro.core.release.LevelRelease` objects and charge nothing; the
    provenance then also records the lineage: the revision refreshed from,
    the affected and reused levels, and the previous ``noise_draw``.
    """

    name = "assemble"

    def run(self, context: PipelineContext) -> None:
        plans = {plan.level: plan for plan in context.plans}
        level_releases: Dict[int, LevelRelease] = {}
        for outcome in context.outcomes:
            plan = plans[outcome.level]
            context.charge(outcome.cost, f"noise-injection-level-{plan.level}")
            guarantee = GroupPrivacyGuarantee(
                epsilon=outcome.cost.epsilon,
                delta=outcome.cost.delta,
                unit=PrivacyUnit.GROUP,
                description=plan.description,
                level=plan.level,
                num_groups=plan.num_groups,
                max_group_size=plan.max_group_size,
            )
            level_releases[plan.level] = LevelRelease(
                level=plan.level,
                answers=outcome.answers,
                guarantee=guarantee,
                mechanism=plan.mechanism,
                noise_scale=outcome.noise_scale,
                sensitivity=plan.sensitivity,
            )
        provenance = {
            "graph_revision": (
                int(context.revision) if context.revision is not None else context.graph.revision
            ),
            "level_fingerprints": context.fingerprints,
            "fingerprint_version": FINGERPRINT_VERSION,
        }
        previous = context.previous
        if previous is not None:
            for level in context.reused_levels:
                level_releases[level] = previous.level_releases[level]
            provenance["refreshed_from_revision"] = previous.provenance.get("graph_revision")
            provenance["affected_levels"] = sorted(outcome.level for outcome in context.outcomes)
            provenance["reused_levels"] = list(context.reused_levels)
            if "noise_draw" in previous.provenance:
                provenance["noise_draw"] = previous.provenance["noise_draw"]
        context.release = MultiLevelRelease(
            dataset_name=context.graph.name,
            level_releases=level_releases,
            level_statistics=context.hierarchy.level_statistics()
            if context.hierarchy is not None
            else [],
            specialization_cost=context.specialization_cost,
            config=dict(context.release_config),
            provenance=provenance,
        )


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class DisclosurePipeline:
    """An ordered sequence of stages run against one context.

    Examples
    --------
    >>> from repro.core.config import DisclosureConfig
    >>> from repro.datasets import generate_dblp_like
    >>> from repro.grouping.specialization import SpecializationConfig, Specializer
    >>> config = DisclosureConfig(specialization=SpecializationConfig(num_levels=4))
    >>> context = PipelineContext(
    ...     graph=generate_dblp_like(num_authors=120, seed=1),
    ...     workload=None, config=config, release_config=config.to_dict(),
    ...     specializer=Specializer(config=config.specialization, rng=0),
    ... )
    >>> from repro.core.common import normalise_workload
    >>> context.workload = normalise_workload(None)
    >>> release = DisclosurePipeline.standard().run(context).release
    >>> sorted(release.levels())[0]
    0
    """

    def __init__(self, stages: Sequence[PipelineStage]):
        self.stages: List[PipelineStage] = list(stages)
        if not self.stages:
            raise DisclosureError("a pipeline needs at least one stage")

    @classmethod
    def standard(cls) -> "DisclosurePipeline":
        """The paper's five-stage pipeline with group-sensitivity calibration."""
        return cls(
            [
                SpecializeStage(),
                CompileStage(),
                GroupCalibrateStage(),
                PerturbStage(),
                AssembleStage(),
            ]
        )

    def run(self, context: PipelineContext) -> PipelineContext:
        """Execute every stage in order and return the (mutated) context."""
        if context.graph.num_nodes() == 0:
            raise DisclosureError("cannot disclose an empty graph")
        for stage in self.stages:
            stage.run(context)
        return context

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DisclosurePipeline(stages={[stage.name for stage in self.stages]})"
