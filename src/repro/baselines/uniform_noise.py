"""Uniform-noise strawman: protect every level like the coarsest one.

A publisher that does not want per-level calibration could simply determine
the noise needed by the most demanding (coarsest) group level and apply that
same noise to every information level.  This trivially satisfies every
level's guarantee but wastes all the utility head-room at the fine-grained
levels — experiment E6 uses it to show that the *multi-level* aspect of the
paper's pipeline (different noise per level) is what delivers the privilege /
accuracy trade-off, not merely the group-aware sensitivity.

The release runs on the shared staged pipeline with a
:class:`~repro.core.pipeline.UniformCalibrateStage` that measures the
coarsest level's sensitivity once and reuses it for every level.
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
    UniformCalibrateStage,
)
from repro.core.release import MultiLevelRelease
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.utils.rng import RandomState
from repro.utils.validation import check_fraction, check_positive


class UniformNoiseDiscloser:
    """Apply the coarsest level's Gaussian noise to every released level."""

    def __init__(
        self,
        epsilon_g: float = 1.0,
        delta: float = 1e-5,
        queries: WorkloadLike = None,
        rng: RandomState = None,
    ):
        self.epsilon_g = check_positive(epsilon_g, "epsilon_g")
        self.delta = check_fraction(delta, "delta")
        self.workload = normalise_workload(queries, default_name="uniform-noise-baseline")
        self._noise_seeds = DiscloseSeedStream(rng, "uniform-noise-baseline")

    def disclose(
        self,
        graph: BipartiteGraph,
        hierarchy: GroupHierarchy,
        levels: Optional[Iterable[int]] = None,
    ) -> MultiLevelRelease:
        """Release every level with noise calibrated to the coarsest level."""
        noise_seed = self._noise_seeds.next()
        pipeline = DisclosurePipeline(
            [
                CompileStage(),
                UniformCalibrateStage(self.epsilon_g, self.delta, "gaussian"),
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
                "baseline": "uniform_noise",
                "epsilon_g": self.epsilon_g,
                "delta": self.delta,
            },
        )
        return pipeline.run(context).release
