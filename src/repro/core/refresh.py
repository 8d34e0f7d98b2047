"""Level-selective re-disclosure of a mutated graph (the refresh path).

A full re-disclosure after every graph mutation re-perturbs — and re-spends
privacy budget on — every level, even when one edge changed inside one
group.  :func:`refresh_release` instead runs the disclosure pipeline once
more, without specialization, on a context that carries the existing
release (:attr:`~repro.core.pipeline.PipelineContext.previous`).  The
calibrate stage fingerprints every level once
(:func:`repro.core.common.fingerprint_level`), and the fingerprints are
diffed against the ones stamped into the existing release's provenance:

* **Unaffected levels** — fingerprint unchanged — are skipped by the
  :class:`~repro.core.pipeline.PerturbStage`, and the
  :class:`~repro.core.pipeline.AssembleStage` keeps their stored
  :class:`~repro.core.release.LevelRelease` objects as they are.  No noise
  is drawn and **zero** new privacy budget is spent on them.
* **Affected levels** are re-perturbed under the *original* disclosure's
  noise-seed material, so the refreshed release is bit-identical to what a
  from-scratch disclosure of the mutated graph under the same seed would
  have produced (``tests/test_refresh.py`` proves this).

The assemble stage also writes the lineage into the provenance
(``refreshed_from_revision``, ``affected_levels``, ``reused_levels`` and the
carried ``noise_draw``), and :class:`RefreshResult` is read off the finished
context.  :func:`publish_refresh` is the one way a refresh reaches a
:class:`~repro.core.store.ReleaseStore`: it archives the release under
``<key>-r<revision>`` and republishes ``<key>`` (or saves nothing when
``<key>`` already holds the refreshed release), for
:meth:`~repro.core.publisher.GraphPublisher.refresh` and ``repro refresh``
alike.

The fingerprint captures everything that determines a level's output given
its seed (true answers, sensitivity, epsilon, mechanism, delta, partition
content), so the reuse decision is *honest*: a level is only ever reused
when recomputing it would have reproduced the stored bytes anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.accounting.budget import BudgetLedger
from repro.core.common import WorkloadLike, normalise_workload
from repro.core.pipeline import (
    AssembleStage,
    CompileStage,
    DisclosurePipeline,
    GroupCalibrateStage,
    PerturbStage,
    PipelineContext,
)
from repro.core.release import MultiLevelRelease
from repro.exceptions import DisclosureError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.mechanisms.base import PrivacyCost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import DisclosureConfig
    from repro.core.store import ReleaseStore


@dataclass
class RefreshResult:
    """What one :func:`refresh_release` call produced.

    ``cost`` is the worst per-affected-level spend — ``PrivacyCost(0, 0)``
    when every level was reused.  ``store_key`` / ``reused_from_store`` are
    filled in by :func:`publish_refresh` when the refresh routes through a
    :class:`~repro.core.store.ReleaseStore`.
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
    context = PipelineContext(
        graph=graph,
        workload=normalise_workload(workload),
        hierarchy=hierarchy,
        ledger=ledger,
        noise_seed=noise_seed,
        requested_levels=config.resolved_release_levels(),
        config=config,
        release_config=config.to_dict(),
        previous=release,
        revision=revision,
        # Specialization is not re-run: its cost carries over.
        specialization_cost=release.specialization_cost,
    )
    DisclosurePipeline(
        [CompileStage(), GroupCalibrateStage(), PerturbStage(), AssembleStage()]
    ).run(context)
    provenance = context.release.provenance
    return RefreshResult(
        release=context.release,
        affected_levels=provenance["affected_levels"],
        reused_levels=provenance["reused_levels"],
        cost=PrivacyCost(
            max((outcome.cost.epsilon for outcome in context.outcomes), default=0.0),
            max((outcome.cost.delta for outcome in context.outcomes), default=0.0),
        ),
    )


def publish_refresh(
    store: "ReleaseStore", key: str, revision: int, refresh: Callable[[], RefreshResult]
) -> RefreshResult:
    """Archive a refresh under ``<key>-r<revision>`` and republish ``key``.

    ``refresh`` runs only when the revision is not archived yet.  A
    revision already archived (by this or another process) is reused as
    stored: nothing runs, nothing is spent, and the result carries
    ``reused_from_store=True`` with the archived lineage.  A refresh that
    re-perturbs no level and whose release ``key`` already holds (provenance
    aside) saves nothing and comes back with ``store_key=None``: archiving
    it would only add a copy.  Otherwise the archived release is saved
    again under ``key``, the live alias the serving layer watches.
    """
    archive_key = f"{key}-r{revision}"
    if store.exists(archive_key):
        stored, created = store.load(archive_key), False
    else:
        result = refresh()
        if not result.affected_levels and _holds(store, key, result.release):
            return result
        # A concurrent refresher may archive the revision first; its release wins.
        stored, created = store.get_or_create(archive_key, lambda: result.release)
    if not created:
        provenance = stored.provenance
        result = RefreshResult(
            release=stored,
            affected_levels=list(provenance.get("affected_levels", [])),
            reused_levels=list(provenance.get("reused_levels", [])),
            reused_from_store=True,
        )
    store.save(stored, key=key)
    result.store_key = archive_key
    return result


def _holds(store: "ReleaseStore", key: str, release: MultiLevelRelease) -> bool:
    """Whether ``key`` already stores ``release``, provenance aside."""
    if not store.exists(key):
        return False
    stored = store.load(key).to_dict()
    fresh = release.to_dict()
    stored.pop("provenance")
    fresh.pop("provenance")
    return stored == fresh
