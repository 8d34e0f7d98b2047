"""Tests for staleness tracking in the serving layer.

The contract: a served release is *stale* when the store holds a newer
same-dataset disclosure (the refresh path archives revision-qualified keys
and republishes the live alias).  Metadata responses carry the verdict,
``/healthz`` carries the store-wide summary, and a republish anywhere in the
store invalidates cached metadata bodies — including those of *sibling*
keys whose own bytes did not change.
"""

import pytest

from repro.accounting.budget import PrivacyBudget
from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.publisher import GraphPublisher
from repro.core.store import ReleaseStore
from repro.grouping.specialization import SpecializationConfig
from repro.serving import ReleaseServer, StalenessIndex, fetch_json


@pytest.fixture(scope="module")
def base_release(dblp_graph):
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config, rng=11).disclose(dblp_graph)


def save_at_revision(store, release, key, revision, affected=()):
    """Store a copy of ``release`` whose provenance claims ``revision``."""
    from repro.core.release import MultiLevelRelease

    clone = MultiLevelRelease.from_dict(release.to_dict())
    clone.provenance = dict(release.provenance)
    clone.provenance["graph_revision"] = revision
    if affected:
        clone.provenance["affected_levels"] = list(affected)
    return store.save(clone, key=key)


class TestStalenessIndex:
    def test_single_release_is_fresh(self, base_release, tmp_path):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        verdict = StalenessIndex(store).staleness_for("live")
        assert verdict["stale"] is False
        assert verdict["graph_revision"] == 10
        assert verdict["latest_revision"] == 10
        assert verdict["revisions_behind"] == 0

    def test_newer_sibling_marks_release_stale(self, base_release, tmp_path):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        save_at_revision(store, base_release, "live-r13", 13, affected=[1, 2])
        verdict = StalenessIndex(store).staleness_for("live")
        assert verdict["stale"] is True
        assert verdict["latest_revision"] == 13
        assert verdict["revisions_behind"] == 3
        assert verdict["affected_levels"] == 2

    def test_republish_clears_staleness(self, base_release, tmp_path):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        save_at_revision(store, base_release, "live-r13", 13)
        index = StalenessIndex(store)
        assert index.staleness_for("live")["stale"] is True
        save_at_revision(store, base_release, "live", 13)
        assert index.staleness_for("live")["stale"] is False

    def test_different_datasets_do_not_interact(self, base_release, tmp_path):
        from repro.core.release import MultiLevelRelease

        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        other = MultiLevelRelease.from_dict(base_release.to_dict())
        other.dataset_name = "another-dataset"
        other.provenance = {"graph_revision": 99}
        store.save(other, key="other")
        verdict = StalenessIndex(store).staleness_for("live")
        assert verdict["stale"] is False
        assert verdict["latest_revision"] == 10

    def test_release_without_provenance_is_unknown_not_stale(
        self, base_release, tmp_path
    ):
        from repro.core.release import MultiLevelRelease

        store = ReleaseStore(tmp_path / "store.db")
        legacy = MultiLevelRelease.from_dict(base_release.to_dict())
        legacy.provenance = {}
        store.save(legacy, key="legacy")
        verdict = StalenessIndex(store).staleness_for("legacy")
        assert verdict["stale"] is False
        assert verdict["graph_revision"] is None

    def test_summary_counts_stale_keys(self, base_release, tmp_path):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        save_at_revision(store, base_release, "live-r13", 13)
        summary = StalenessIndex(store).summary()
        assert summary["tracked"] == 2
        assert summary["stale"] == 1
        assert summary["stale_keys"] == ["live"]

    def test_token_changes_on_any_republish(self, base_release, tmp_path):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        index = StalenessIndex(store)
        before = index.token()
        assert index.token() == before  # stable while the store is quiet
        save_at_revision(store, base_release, "live-r11", 11)
        assert index.token() != before

    def test_unchanged_artifacts_are_parsed_once(
        self, base_release, tmp_path, monkeypatch
    ):
        """A document is parsed once, when it is stored: verdicts come from
        the lineage columns and read no document blob."""
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        save_at_revision(store, base_release, "live-r13", 13, affected=[1])

        def forbidden(key):
            raise AssertionError("staleness read a document blob")

        monkeypatch.setattr(store.backend, "get_document", forbidden)
        index = StalenessIndex(store)
        assert index.staleness_for("live")["stale"] is True
        assert index.summary()["stale_keys"] == ["live"]
        index.token()

    def test_ties_at_the_newest_revision_take_the_smallest_key(
        self, base_release, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        save_at_revision(store, base_release, "live-r13-b", 13, affected=[1, 2, 3])
        save_at_revision(store, base_release, "live-r13-a", 13, affected=[1])
        assert StalenessIndex(store).staleness_for("live")["affected_levels"] == 1

    def test_in_memory_store_answers_like_a_file_store(self, base_release, tmp_path):
        file_store = ReleaseStore(tmp_path / "store.db")
        memory_store = ReleaseStore.in_memory()
        for store in (file_store, memory_store):
            save_at_revision(store, base_release, "live", 10)
            save_at_revision(store, base_release, "live-r13", 13, affected=[2])
        for key in ("live", "live-r13", "absent"):
            assert StalenessIndex(memory_store).staleness_for(key) == StalenessIndex(
                file_store
            ).staleness_for(key)
        assert StalenessIndex(memory_store).summary() == StalenessIndex(file_store).summary()


class TestServedStaleness:
    @pytest.fixture
    def policy(self):
        return AccessPolicy({"public": 2}, top_level=4)

    def test_metadata_reports_fresh_then_stale_then_cleared(
        self, base_release, policy, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        with ReleaseServer(store, policy, port=0) as server:
            payload = fetch_json(server.url, "/releases/live")
            assert payload["staleness"]["stale"] is False
            assert payload["provenance"]["graph_revision"] == 10

            # A sibling republish (the refresh archive) makes the cached
            # metadata verdict stale even though `live`'s bytes are
            # untouched — the composed cache token must catch it.
            save_at_revision(store, base_release, "live-r13", 13)
            payload = fetch_json(server.url, "/releases/live")
            assert payload["staleness"]["stale"] is True
            assert payload["staleness"]["latest_revision"] == 13

            save_at_revision(store, base_release, "live", 13)
            payload = fetch_json(server.url, "/releases/live")
            assert payload["staleness"]["stale"] is False

    def test_deleting_the_newest_sibling_clears_a_cached_stale_verdict(
        self, base_release, policy, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        save_at_revision(store, base_release, "live-r13", 13)
        with ReleaseServer(store, policy, port=0) as server:
            assert fetch_json(server.url, "/releases/live")["staleness"]["stale"] is True
            # Neither `live`'s bytes nor its fingerprint move; only the
            # store-wide revision that delete bumps can evict the cached body.
            store.delete("live-r13")
            payload = fetch_json(server.url, "/releases/live")
            assert payload["staleness"]["stale"] is False
            assert payload["staleness"]["latest_revision"] == 10

    def test_healthz_reports_staleness_summary(self, base_release, policy, tmp_path):
        store = ReleaseStore(tmp_path / "store.db")
        save_at_revision(store, base_release, "live", 10)
        with ReleaseServer(store, policy, port=0) as server:
            assert fetch_json(server.url, "/healthz")["staleness"] == {
                "tracked": 1,
                "stale": 0,
                "stale_keys": [],
            }
            save_at_revision(store, base_release, "live-r13", 13)
            summary = fetch_json(server.url, "/healthz")["staleness"]
            assert summary["stale"] == 1
            assert summary["stale_keys"] == ["live"]

    def test_publisher_refresh_clears_served_staleness(
        self, dblp_graph, policy, tmp_path
    ):
        """The full loop: publish, mutate, refresh — serving sees it clear."""
        graph = dblp_graph.copy()
        publisher = GraphPublisher(
            graph,
            total_budget=PrivacyBudget(epsilon=50.0, delta=1e-2),
            base_config=DisclosureConfig(
                epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
            ),
            rng=7,
        )
        release = publisher.release()
        store = ReleaseStore(tmp_path / "store.db")
        store.save(release, key="live")
        with ReleaseServer(store, policy, port=0) as server:
            assert fetch_json(server.url, "/releases/live")["staleness"]["stale"] is False

            left = next(iter(graph.left_nodes()))
            graph.add_right_node("breaking-news")
            graph.add_association(left, "breaking-news")
            result = publisher.refresh(release=release, store=store, key="live")

            payload = fetch_json(server.url, "/releases/live")
            assert payload["staleness"]["stale"] is False
            assert payload["provenance"]["graph_revision"] == graph.revision
            assert payload["provenance"]["affected_levels"] == result.affected_levels
            # The archive key is served too, and is equally fresh.
            archived = fetch_json(server.url, f"/releases/{result.store_key}")
            assert archived["staleness"]["stale"] is False
