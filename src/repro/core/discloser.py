"""The multi-level group-private discloser (the paper's Section III pipeline)."""

from __future__ import annotations

from typing import Optional

from repro.accounting.budget import BudgetLedger
from repro.core.common import DiscloseSeedStream, WorkloadLike, normalise_workload
from repro.core.config import DisclosureConfig
from repro.core.pipeline import DisclosurePipeline, PipelineContext
from repro.core.refresh import RefreshResult, refresh_release
from repro.core.release import MultiLevelRelease
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.specialization import Specializer
from repro.utils.rng import RandomState, derive_rng


class MultiLevelDiscloser:
    """Group differential privacy-preserving disclosure of a bipartite graph.

    A thin front-end over the staged
    :class:`~repro.core.pipeline.DisclosurePipeline`
    (``specialize -> compile -> calibrate -> perturb -> assemble``): this
    class owns the configuration, the specializer, the budget ledger and the
    derived random streams, and builds one pipeline context per
    :meth:`disclose` call.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.DisclosureConfig`; defaults reproduce the
        paper's setup (9 levels, 4-way splits, Gaussian noise, per-level
        ``epsilon_g``).
    specializer:
        The phase-1 specializer.  Defaults to an Exponential-Mechanism
        :class:`~repro.grouping.specialization.Specializer` built from
        ``config.specialization``; pass a
        :class:`~repro.grouping.specialization.DeterministicSpecializer` or
        :class:`~repro.grouping.specialization.RandomSpecializer` for the
        ablations.
    queries:
        The workload released at every level.  Defaults to the paper's single
        query, :class:`~repro.queries.counts.TotalAssociationCountQuery`.
    rng:
        Seed, generator, or ``None``.  Phase 1 and phase 2 use independent
        streams derived from this value, and each released level derives its
        own noise stream, so re-running with the same seed reproduces the
        release exactly, and a refresh re-draws an affected level's noise
        exactly.

    Examples
    --------
    >>> from repro.datasets import generate_dblp_like
    >>> graph = generate_dblp_like(num_authors=200, num_papers=300, seed=1)
    >>> discloser = MultiLevelDiscloser(DisclosureConfig.paper_defaults(epsilon_g=0.5), rng=7)
    >>> release = discloser.disclose(graph)
    >>> sorted(release.levels())[0]
    0
    """

    def __init__(
        self,
        config: Optional[DisclosureConfig] = None,
        specializer: Optional[Specializer] = None,
        queries: WorkloadLike = None,
        rng: RandomState = None,
    ):
        self.config = config if config is not None else DisclosureConfig()
        self._phase1_rng = derive_rng(rng, "phase1-specialization")
        # Seed *material* rather than a live generator: each disclose call
        # (and, below it, each level) derives its own independent stream, so
        # the noise does not depend on generator call order — the property
        # that lets refresh re-perturb one level without replaying the rest.
        self._noise_seeds = DiscloseSeedStream(rng, "phase2-noise")
        self.specializer = (
            specializer
            if specializer is not None
            else Specializer(config=self.config.specialization, rng=self._phase1_rng)
        )
        self.workload = normalise_workload(queries)
        self.ledger = BudgetLedger()
        self.pipeline = DisclosurePipeline.standard()

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def build_hierarchy(self, graph: BipartiteGraph) -> GroupHierarchy:
        """Run only the specialization phase and return the hierarchy."""
        result = self.specializer.build(graph)
        self.ledger.charge(result.privacy_cost, label="specialization")
        return result.hierarchy

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def disclose(
        self,
        graph: BipartiteGraph,
        hierarchy: Optional[GroupHierarchy] = None,
    ) -> MultiLevelRelease:
        """Run the staged pipeline and return the multi-level release.

        Parameters
        ----------
        graph:
            The bipartite association graph to disclose.
        hierarchy:
            An existing group hierarchy to reuse (phase 1 is skipped and no
            specialization budget is charged).  Useful when the same grouping
            backs several releases, and in tests.
        """
        context = PipelineContext(
            graph=graph,
            workload=self.workload,
            hierarchy=hierarchy,
            specializer=self.specializer,
            ledger=self.ledger,
            noise_seed=self._noise_seeds.next(),
            requested_levels=self.config.resolved_release_levels(),
            config=self.config,
            release_config=self.config.to_dict(),
        )
        release = self.pipeline.run(context).release
        # Which stream draw fed this release: refresh re-derives the same
        # seed material from it (DiscloseSeedStream.seed_for), so affected
        # levels are re-perturbed with exactly the original noise streams.
        release.provenance["noise_draw"] = self._noise_seeds.calls
        return release

    # ------------------------------------------------------------------
    # Incremental re-disclosure
    # ------------------------------------------------------------------
    def refresh(
        self,
        release: MultiLevelRelease,
        graph: BipartiteGraph,
        hierarchy: Optional[GroupHierarchy] = None,
        revision: Optional[int] = None,
    ) -> RefreshResult:
        """Re-disclose a mutated ``graph``, re-perturbing only changed levels.

        Diffs per-level content fingerprints against ``release``'s provenance
        (see :func:`repro.core.refresh.refresh_release`): levels the mutation
        did not affect are reused byte-for-byte with **zero** new privacy
        spend, affected levels are re-perturbed under the original
        disclosure's recorded noise draw — so the result is bit-identical to
        a from-scratch :meth:`disclose` of the mutated graph under the same
        seed.

        Parameters
        ----------
        release:
            An earlier release of the same family (normally loaded back from
            a :class:`~repro.core.store.ReleaseStore`).
        graph:
            The mutated graph.
        hierarchy:
            The hierarchy to calibrate against.  When omitted, phase 1 runs
            once via :meth:`build_hierarchy` (charging its specialization
            budget) — the path a fresh process takes when refreshing a stored
            release.
        revision:
            Overrides the graph revision stamped into the refreshed
            provenance.  A graph re-loaded from an edge list restarts its
            revision counter at its construction mutations, so the CLI keeps
            stored revisions monotonic by passing
            ``max(graph.revision, stored revision + 1)``.
        """
        if hierarchy is None:
            hierarchy = self.build_hierarchy(graph)
        noise_draw = int(release.provenance.get("noise_draw", 1))
        return refresh_release(
            release,
            graph,
            hierarchy,
            config=self.config,
            workload=self.workload,
            noise_seed=self._noise_seeds.seed_for(noise_draw),
            ledger=self.ledger,
            revision=revision,
        )
