"""Staleness tracking for served releases.

A release is *stale* when the store holds a newer disclosure of the same
dataset — i.e. its provenance ``graph_revision`` is behind the highest
revision any same-dataset release in the store carries.  The serving layer
cannot see the live graph (it only ever reads the store), so the newest
stored revision *is* its view of "the current graph": the publisher's
refresh path (:meth:`~repro.core.publisher.GraphPublisher.refresh`) archives
every refresh under a revision-qualified key and republishes the live alias,
which is exactly the signal this index watches.

:class:`StalenessIndex` keeps no state: each verdict is one indexed SQL
query over lineage columns the store wrote at ``put`` time, so no document
is read.  Its :meth:`~StalenessIndex.token` is the store-wide revision; the
server composes it into the response-cache fingerprint of metadata routes,
so any republish or deletion invalidates every cached metadata body (a
sibling's refresh changes this release's verdict without touching its bytes).
"""

from __future__ import annotations

from repro.core.store import ReleaseStore, _slugify


class StalenessIndex:
    """Staleness verdicts over a :class:`ReleaseStore`, answered in SQL.

    Thread-safe: it only issues read queries, one per call.
    """

    def __init__(self, store: ReleaseStore):
        self._store = store

    def staleness_for(self, key: str) -> dict:
        """The staleness verdict for one served release.

        ``stale`` is true when a same-dataset release in the store carries a
        higher ``graph_revision``; ``revisions_behind`` quantifies the gap
        and ``affected_levels`` reports how many levels the *newest* release
        (the smallest key among ties) re-perturbed to get there (0 for a
        from-scratch disclosure).  A release without a recorded revision
        (stored before provenance stamping existed) reports ``stale: false``
        with a null revision — unknown, not known-fresh, but never blocking.
        """
        served, latest, latest_affected = self._store.backend.lineage(_slugify(key))
        stale = served is not None and latest is not None and served < latest
        return {
            "graph_revision": served,
            "latest_revision": latest,
            "stale": stale,
            "revisions_behind": (latest - served) if stale else 0,
            "affected_levels": latest_affected if stale else 0,
        }

    def summary(self) -> dict:
        """Store-wide staleness for ``/healthz``."""
        tracked, stale_keys = self._store.backend.stale_keys()
        return {"tracked": tracked, "stale": len(stale_keys), "stale_keys": stale_keys}

    def token(self) -> str:
        """The store-wide revision, which every ``put`` and ``delete`` bumps.

        The cache-composition hook that lets a *sibling's* refresh invalidate
        a cached metadata response whose own bytes did not move.
        """
        return str(self._store.backend.revision())
