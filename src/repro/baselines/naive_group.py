"""Naive group DP via the generic group-privacy lemma.

To guarantee ``epsilon_g`` for groups of up to ``k`` records, the lemma
requires running a record-level mechanism at ``epsilon_g / k``.  The naive
baseline bounds ``k`` crudely as ``max group size x maximum degree`` (every
node of the largest group could in principle carry the maximum number of
associations), instead of measuring how many associations the groups actually
touch as the paper's calibration does.  The resulting noise is never smaller
and is often one to two orders of magnitude larger, which experiment E6
quantifies.

The release runs on the shared staged pipeline
(:mod:`repro.core.pipeline`) — only the calibration stage differs: a
:class:`~repro.core.pipeline.WorstCaseCalibrateStage` swaps the paper's
measured group sensitivity for the lemma's worst-case bound.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.common import DiscloseSeedStream, WorkloadLike, normalise_workload
from repro.core.pipeline import (
    AssembleStage,
    CompileStage,
    DisclosurePipeline,
    PerturbStage,
    PipelineContext,
    WorstCaseCalibrateStage,
    worst_case_group_sensitivity,
)
from repro.core.release import MultiLevelRelease
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.utils.rng import RandomState
from repro.utils.validation import check_fraction, check_positive


class NaiveGroupDPDiscloser:
    """Group-private release calibrated by the worst-case lemma bound.

    Parameters
    ----------
    epsilon_g, delta:
        Per-level group privacy parameters (same semantics as the paper's
        pipeline, so releases are directly comparable).
    mechanism:
        ``"gaussian"`` (default, comparable to the paper) or ``"laplace"``.
    queries:
        Workload; defaults to the total association count.
    rng:
        Seed / generator.
    """

    def __init__(
        self,
        epsilon_g: float = 1.0,
        delta: float = 1e-5,
        mechanism: str = "gaussian",
        queries: WorkloadLike = None,
        rng: RandomState = None,
    ):
        self.epsilon_g = check_positive(epsilon_g, "epsilon_g")
        self.delta = check_fraction(delta, "delta")
        if mechanism not in ("laplace", "gaussian"):
            raise ValueError(f"mechanism must be 'laplace' or 'gaussian', got {mechanism!r}")
        self.mechanism = mechanism
        self.workload = normalise_workload(queries, default_name="naive-group-baseline")
        self._noise_seeds = DiscloseSeedStream(rng, "naive-group-baseline")

    def level_sensitivity(self, graph: BipartiteGraph, hierarchy: GroupHierarchy, level: int) -> float:
        """The lemma-style worst-case sensitivity bound at one level."""
        return worst_case_group_sensitivity(graph, hierarchy.partition_at(level))

    def disclose(
        self,
        graph: BipartiteGraph,
        hierarchy: GroupHierarchy,
        levels: Optional[Iterable[int]] = None,
    ) -> MultiLevelRelease:
        """Release every requested level with lemma-calibrated noise."""
        noise_seed = self._noise_seeds.next()
        pipeline = DisclosurePipeline(
            [
                CompileStage(),
                WorstCaseCalibrateStage(self.epsilon_g, self.delta, self.mechanism),
                PerturbStage(),
                AssembleStage(),
            ]
        )
        context = PipelineContext(
            graph=graph,
            workload=self.workload,
            hierarchy=hierarchy,
            noise_seed=noise_seed,
            requested_levels=sorted(levels) if levels is not None else None,
            strict_levels=levels is not None,
            release_config={
                "baseline": "naive_group",
                "epsilon_g": self.epsilon_g,
                "delta": self.delta,
                "mechanism": self.mechanism,
            },
        )
        return pipeline.run(context).release
