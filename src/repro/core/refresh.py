"""Level-selective re-disclosure of a mutated graph (the refresh path).

A full re-disclosure after every graph mutation re-perturbs — and re-spends
privacy budget on — every level, even when one edge changed inside one
group.  :func:`refresh_release` instead re-runs only the *cheap* pipeline
stages (compile + calibrate) on the mutated graph, fingerprints every level
(:func:`repro.core.common.fingerprint_level`), and diffs the fingerprints
against the ones stamped into the existing release's provenance:

* **Unaffected levels** — fingerprint unchanged — keep their stored
  :class:`~repro.core.release.LevelRelease` byte-for-byte.  No noise is
  drawn and **zero** new privacy budget is spent on them.
* **Affected levels** are re-perturbed by the normal
  :class:`~repro.core.pipeline.PerturbStage` under the *original*
  disclosure's noise-seed material, so the refreshed release is bit-identical
  to what a from-scratch disclosure of the mutated graph under the same seed
  would have produced (``tests/test_refresh.py`` proves this).

The fingerprint captures everything that determines a level's output given
its seed (true answers, sensitivity, epsilon, mechanism, delta, partition
content), so the reuse decision is *honest*: a level is only ever reused
when recomputing it would have reproduced the stored bytes anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.accounting.budget import BudgetLedger
from repro.core.common import FINGERPRINT_VERSION, WorkloadLike, normalise_workload
from repro.core.pipeline import (
    AssembleStage,
    CompileStage,
    GroupCalibrateStage,
    PerturbStage,
    PipelineContext,
    level_fingerprints_for,
)
from repro.core.release import MultiLevelRelease
from repro.exceptions import DisclosureError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.mechanisms.base import PrivacyCost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import DisclosureConfig


@dataclass
class RefreshResult:
    """What one :func:`refresh_release` call produced.

    ``cost`` is the worst per-affected-level spend — ``PrivacyCost(0, 0)``
    when every level was reused.  ``store_key`` / ``reused_from_store`` are
    filled in by :meth:`~repro.core.publisher.GraphPublisher.refresh` when
    the refresh routes through a :class:`~repro.core.store.ReleaseStore`.
    """

    release: MultiLevelRelease
    affected_levels: List[int] = field(default_factory=list)
    reused_levels: List[int] = field(default_factory=list)
    cost: PrivacyCost = field(default_factory=lambda: PrivacyCost(0.0, 0.0))
    store_key: Optional[str] = None
    reused_from_store: bool = False

    @property
    def levels_reperturbed(self) -> int:
        """Convenience count for logs and CLI output."""
        return len(self.affected_levels)


def refresh_release(
    release: MultiLevelRelease,
    graph: BipartiteGraph,
    hierarchy: GroupHierarchy,
    *,
    config: "DisclosureConfig",
    workload: WorkloadLike = None,
    noise_seed: Optional[np.random.SeedSequence] = None,
    ledger: Optional[BudgetLedger] = None,
    revision: Optional[int] = None,
) -> RefreshResult:
    """Re-disclose ``graph`` against ``release``, re-perturbing only what changed.

    Parameters
    ----------
    release:
        The existing release to refresh (its provenance fingerprints drive
        the reuse decision; a release without fingerprints refreshes every
        level).
    graph, hierarchy:
        The *current* graph and the grouping hierarchy.  Specialization is
        never re-run here — pass the hierarchy the release was built with
        (or a freshly built one; changed partitions simply show up as
        affected levels).
    config, workload:
        The disclosure configuration and query workload, which must describe
        the same release family (normally read back from the stored release).
    noise_seed:
        The seed material of the *original* disclosure
        (:meth:`DiscloseSeedStream.seed_for`).  Affected levels derive their
        per-level streams from it, which is what makes the refreshed release
        bit-identical to a from-scratch same-seed disclosure.
    ledger:
        Charged only for the affected levels' noise.
    revision:
        Overrides the graph revision recorded in the new provenance (the CLI
        uses this to keep file-loaded revisions monotonic per refresh).
    """
    if graph.num_nodes() == 0:
        raise DisclosureError("cannot refresh against an empty graph")
    workload = normalise_workload(workload)
    context = PipelineContext(
        graph=graph,
        workload=workload,
        hierarchy=hierarchy,
        ledger=ledger,
        noise_seed=noise_seed,
        requested_levels=config.resolved_release_levels(),
        config=config,
        release_config=config.to_dict(),
    )
    # Cheap stages only: evaluate answers and calibrate every level ...
    CompileStage().run(context)
    GroupCalibrateStage().run(context)
    fingerprints = level_fingerprints_for(context)

    # ... then re-perturb only the levels whose fingerprints moved.  A release
    # stored without a fingerprint version carries legacy partition digests.
    old_fingerprints: Dict[str, str] = dict(release.provenance.get("level_fingerprints", {}))
    comparable = fingerprints
    if old_fingerprints and "fingerprint_version" not in release.provenance:
        comparable = level_fingerprints_for(context, legacy=True)
    affected = [
        plan
        for plan in context.plans
        if plan.level not in release.level_releases
        or old_fingerprints.get(str(plan.level)) != comparable[str(plan.level)]
    ]
    affected_levels = sorted(plan.level for plan in affected)
    reused_levels = sorted(level for level in context.levels if level not in affected_levels)

    context.plans = affected
    PerturbStage().run(context)

    # Assemble charges the ledger per (affected) outcome; specialization was
    # not re-run, so its cost carries over from the original release.
    context.specialization_cost = release.specialization_cost
    AssembleStage().run(context)
    refreshed = context.release
    for level in reused_levels:
        refreshed.level_releases[level] = release.level_releases[level]

    cost = PrivacyCost(
        max((outcome.cost.epsilon for outcome in context.outcomes), default=0.0),
        max((outcome.cost.delta for outcome in context.outcomes), default=0.0),
    )
    refreshed.provenance = {
        "graph_revision": int(revision) if revision is not None else graph.revision,
        "level_fingerprints": fingerprints,
        "fingerprint_version": FINGERPRINT_VERSION,
        "refreshed_from_revision": release.provenance.get("graph_revision"),
        "affected_levels": affected_levels,
        "reused_levels": reused_levels,
    }
    if "noise_draw" in release.provenance:
        refreshed.provenance["noise_draw"] = release.provenance["noise_draw"]
    return RefreshResult(
        release=refreshed,
        affected_levels=affected_levels,
        reused_levels=reused_levels,
        cost=cost,
    )
