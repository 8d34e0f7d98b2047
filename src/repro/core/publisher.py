"""A stateful publisher managing repeated disclosures under a total budget.

The pipeline in :mod:`repro.core.discloser` performs *one* release.  A real
publisher typically answers a sequence of requests over time — new epsilon
sweeps, new workloads, refreshed releases — and must make sure the cumulative
privacy loss stays within an agreed budget.  :class:`GraphPublisher` wraps a
graph, a specialization (built once and reused, so its budget is paid once),
a :class:`~repro.accounting.budget.BudgetLedger`, and convenience methods for
producing per-role exports of each release.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.accounting.budget import BudgetLedger, PrivacyBudget
from repro.core.access import AccessPolicy
from repro.core.common import uses_l2_sensitivity
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.refresh import RefreshResult, publish_refresh
from repro.core.release import LevelRelease, MultiLevelRelease
from repro.core.store import ReleaseStore
from repro.exceptions import BudgetExceededError, DisclosureError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.grouping.specialization import Specializer
from repro.mechanisms.base import PrivacyCost
from repro.queries.base import Query
from repro.queries.workload import QueryWorkload
from repro.utils.rng import RandomState, derive_rng
from repro.utils.serialization import to_json_file


class GraphPublisher:
    """Manages repeated group-private releases of one association graph.

    Parameters
    ----------
    graph:
        The association graph being published.
    total_budget:
        The overall ``(epsilon, delta)`` the publisher is willing to spend
        across *all* releases (specialization included).  ``None`` disables
        enforcement and only records spends.
    base_config:
        Default :class:`DisclosureConfig` for releases (per-release overrides
        are accepted by :meth:`release`).
    rng:
        Seed / generator; every release derives an independent stream.

    Examples
    --------
    >>> from repro.datasets import generate_dblp_like
    >>> publisher = GraphPublisher(generate_dblp_like(300, seed=1),
    ...                            total_budget=PrivacyBudget(5.0, 1e-3), rng=0)
    >>> release = publisher.release(epsilon_g=0.5)
    >>> publisher.spent().epsilon > 0
    True
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        total_budget: Optional[PrivacyBudget] = None,
        base_config: Optional[DisclosureConfig] = None,
        rng: RandomState = None,
    ):
        if graph.num_nodes() == 0:
            raise DisclosureError("cannot publish an empty graph")
        self.graph = graph
        self.base_config = base_config if base_config is not None else DisclosureConfig()
        self.ledger = BudgetLedger(total_budget)
        self._rng = derive_rng(rng, "graph-publisher")
        self._hierarchy: Optional[GroupHierarchy] = None
        self._releases: List[MultiLevelRelease] = []
        # Each release with the discloser that produced it (its frozen
        # noise-seed stream is what lets a refresh re-perturb affected
        # levels with the original streams).
        self._release_records: List[Tuple[MultiLevelRelease, MultiLevelDiscloser]] = []
        self._release_counter = 0

    # ------------------------------------------------------------------
    # Hierarchy management
    # ------------------------------------------------------------------
    @property
    def hierarchy(self) -> Optional[GroupHierarchy]:
        """The shared hierarchy, or ``None`` before the first release."""
        return self._hierarchy

    def build_hierarchy(self, specializer: Optional[Specializer] = None) -> GroupHierarchy:
        """Build (or rebuild) the shared hierarchy, charging its budget once.

        A rebuilt hierarchy replaces the previous one for subsequent releases.
        """
        specializer = (
            specializer
            if specializer is not None
            else Specializer(config=self.base_config.specialization, rng=derive_rng(self._rng, "specialization"))
        )
        result = specializer.build(self.graph)
        if not self.ledger.can_spend(result.privacy_cost):
            raise BudgetExceededError(result.privacy_cost.to_dict(), self._remaining_dict())
        self.ledger.charge(result.privacy_cost, label="specialization")
        self._hierarchy = result.hierarchy
        return self._hierarchy

    def _remaining_dict(self) -> Optional[dict]:
        remaining = self.ledger.remaining()
        return remaining.to_dict() if remaining is not None else None

    # ------------------------------------------------------------------
    # Releases
    # ------------------------------------------------------------------
    def _release_cost(self, config: DisclosureConfig) -> PrivacyCost:
        """Conservative cost of one release: ``epsilon_g`` and its delta.

        Each level's guarantee is stated against its own group adjacency, so
        the release as a whole is charged the worst level's cost.  In
        ``per_level`` mode every level spends ``epsilon_g``; in ``total`` mode
        the levels split ``epsilon_g``, so it bounds the worst level's share.
        """
        delta = config.delta if uses_l2_sensitivity(config.mechanism) else 0.0
        return PrivacyCost(config.epsilon_g, delta)

    def release(
        self,
        epsilon_g: Optional[float] = None,
        queries: Union[None, Query, Iterable[Query], QueryWorkload] = None,
        config: Optional[DisclosureConfig] = None,
        label: str = "",
    ) -> MultiLevelRelease:
        """Produce one multi-level release, charging the ledger.

        Parameters
        ----------
        epsilon_g:
            Override the per-level budget of the base configuration.
        queries:
            Workload for this release (defaults to the total association count).
        config:
            Full configuration override (``epsilon_g`` is applied on top of it).
        label:
            Optional label recorded in the ledger entry.
        """
        config = config if config is not None else self.base_config
        if epsilon_g is not None:
            config = dataclasses.replace(config, epsilon_g=epsilon_g)
        if self._hierarchy is None:
            self.build_hierarchy()

        cost = self._release_cost(config)
        if not self.ledger.can_spend(cost):
            raise BudgetExceededError(cost.to_dict(), self._remaining_dict())

        self._release_counter += 1
        discloser = MultiLevelDiscloser(
            config=config,
            queries=queries,
            rng=derive_rng(self._rng, f"release-{self._release_counter}"),
        )
        release = discloser.disclose(self.graph, hierarchy=self._hierarchy)
        self.ledger.charge(cost, label=label or f"release-{self._release_counter}")
        self._releases.append(release)
        self._release_records.append((release, discloser))
        return release

    def refresh(
        self,
        release: Optional[MultiLevelRelease] = None,
        store: Optional[ReleaseStore] = None,
        key: Optional[str] = None,
        label: str = "",
    ) -> RefreshResult:
        """Re-disclose the (mutated) graph, re-perturbing only affected levels.

        Diffs the current graph against ``release``'s provenance fingerprints
        (:func:`repro.core.refresh.refresh_release`): levels the mutations
        did not touch are reused byte-for-byte and spend **zero** new budget;
        the ledger is charged only the worst affected level's cost — nothing
        at all when no level moved.  The shared hierarchy is reused, so no
        specialization budget is spent either.

        Parameters
        ----------
        release:
            Which of this publisher's releases to refresh (default: the most
            recent).  Must have been produced by :meth:`release` — the
            publisher keeps each release's frozen noise-seed material, which
            is what makes the refreshed release bit-identical to disclosing
            the mutated graph from scratch under the same seed.
        store:
            When given, the refreshed release is persisted by
            :func:`~repro.core.refresh.publish_refresh`: once under a
            revision-qualified archive key (``<key>-r<revision>``, so
            refreshing the same revision twice reuses the stored artefact
            and spends nothing), and once under ``key`` itself — the live
            alias the serving layer watches, whose fingerprint change clears
            staleness and invalidates response caches.  A refresh that moves
            no level and whose release ``key`` already holds saves nothing.
        key:
            Base store key (required with ``store``).
        label:
            Optional ledger label (default ``refresh-<n>``).
        """
        if release is None:
            if not self._release_records:
                raise DisclosureError("nothing to refresh: no release was produced yet")
            release, discloser = self._release_records[-1]
        else:
            discloser = next(
                (owner for produced, owner in self._release_records if produced is release), None
            )
            if discloser is None:
                raise ValidationError(
                    "refresh requires a release produced by this publisher "
                    "(its noise-seed material is needed to reproduce the levels)"
                )
        if self._hierarchy is None:  # pragma: no cover - release() always builds it
            raise DisclosureError("cannot refresh without the shared hierarchy")
        if store is not None and key is None:
            raise ValidationError("refresh(store=...) requires an explicit key")

        self._release_counter += 1
        spend_label = label or f"refresh-{self._release_counter}"

        def run_refresh() -> RefreshResult:
            result = discloser.refresh(release, self.graph, hierarchy=self._hierarchy)
            if not self.ledger.can_spend(result.cost):
                raise BudgetExceededError(result.cost.to_dict(), self._remaining_dict())
            self.ledger.charge(result.cost, label=spend_label)
            return result

        if store is None:
            result = run_refresh()
        else:
            result = publish_refresh(store, key, self.graph.revision, run_refresh)
        if not result.reused_from_store:
            self._releases.append(result.release)
        return result

    def releases(self) -> List[MultiLevelRelease]:
        """All releases produced so far, in order."""
        return list(self._releases)

    def spent(self) -> PrivacyCost:
        """Cumulative privacy spend (specialization + all releases)."""
        return self.ledger.spent()

    def remaining(self) -> Optional[PrivacyCost]:
        """Remaining budget, or ``None`` when unenforced."""
        return self.ledger.remaining()

    # ------------------------------------------------------------------
    # Per-role exports
    # ------------------------------------------------------------------
    def export_views(
        self,
        release: MultiLevelRelease,
        policy: AccessPolicy,
        directory: Union[str, Path],
        store: Optional[ReleaseStore] = None,
    ) -> Dict[str, Path]:
        """Write one JSON document per role containing only that role's view.

        Returns ``{role: written path}``.  Each document embeds the level
        release and the role's information-level tag, never the full
        multi-level release, so handing a file to a user cannot leak a finer
        level than their privilege allows.

        When a :class:`~repro.core.store.ReleaseStore` is given, the full
        release is persisted there first and every role document records the
        store key, so a serving layer can later re-derive any view from the
        stored artefact instead of re-disclosing.
        """
        directory = Path(directory)
        release_key: Optional[str] = None
        if store is not None:
            release_key = store.save(release)
        written: Dict[str, Path] = {}
        for role in policy.roles():
            view: LevelRelease = policy.view_for(role, release)
            document = {
                "role": role,
                "information_level": policy.information_level(role).name,
                "dataset": release.dataset_name,
                "release": view.to_dict(),
            }
            if release_key is not None:
                document["release_key"] = release_key
            written[role] = to_json_file(document, directory / f"{role}.json")
        return written

    def serve(
        self,
        release: MultiLevelRelease,
        policy: AccessPolicy,
        store: Union[ReleaseStore, str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        processes: int = 1,
    ):
        """Persist ``release`` into ``store`` and return a ready (unstarted)
        server for it.

        The returned server holds no reference to the publisher, the graph,
        or the disclosure pipeline — only to the store and the policy — so
        once it is started the budget-spending half of the system can shut
        down entirely while consumers keep fetching their views.  Call
        ``.start()`` (non-blocking) or ``.serve_forever()`` on the result.

        With ``processes > 1`` the result is a
        :class:`~repro.serving.fleet.ServerFleet` — N ``SO_REUSEPORT``
        worker processes over the store *file* — so the store must be a
        SQLite file (each worker opens its own handle; an in-memory store
        cannot cross process boundaries).  Otherwise a single
        :class:`~repro.serving.server.ReleaseServer` is returned.
        """
        from repro.serving.server import DEFAULT_CACHE_SIZE, ReleaseServer

        if not isinstance(store, ReleaseStore):
            store = ReleaseStore(store, cache_size=DEFAULT_CACHE_SIZE)
        store.save(release)
        if processes > 1:
            from repro.serving.fleet import ServerFleet

            if store.root is None:
                raise ValidationError(
                    "serve(processes>1) needs a SQLite-backed store file: "
                    f"{store.backend.describe()} cannot be shared across processes"
                )
            return ServerFleet(
                store.root, policy, host=host, port=port, processes=processes
            )
        return ReleaseServer(store=store, policy=policy, host=host, port=port)
