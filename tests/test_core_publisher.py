"""Tests for the GraphPublisher."""

import pytest

from repro.accounting.budget import PrivacyBudget
from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.publisher import GraphPublisher
from repro.core.store import ReleaseStore
from repro.exceptions import BudgetExceededError, DisclosureError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.specialization import SpecializationConfig
from repro.utils.serialization import from_json_file


@pytest.fixture
def base_config():
    return DisclosureConfig(epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4))


@pytest.fixture
def publisher(dblp_graph, base_config):
    return GraphPublisher(
        dblp_graph,
        total_budget=PrivacyBudget(epsilon=5.0, delta=1e-3),
        base_config=base_config,
        rng=7,
    )


class TestGraphPublisher:
    def test_empty_graph_rejected(self, base_config):
        with pytest.raises(DisclosureError):
            GraphPublisher(BipartiteGraph(), base_config=base_config)

    def test_first_release_builds_hierarchy_and_charges_budget(self, publisher):
        assert publisher.hierarchy is None
        release = publisher.release()
        assert publisher.hierarchy is not None
        assert release.levels() == [0, 1, 2]
        # specialization (1.0) + release (0.5)
        assert publisher.spent().epsilon == pytest.approx(1.5)

    def test_hierarchy_reused_across_releases(self, publisher):
        publisher.release(label="first")
        spent_after_first = publisher.spent().epsilon
        publisher.release(label="second")
        # Only the release cost is added, not another specialization.
        assert publisher.spent().epsilon == pytest.approx(spent_after_first + 0.5)
        assert len(publisher.releases()) == 2

    def test_epsilon_override(self, publisher):
        release = publisher.release(epsilon_g=0.25)
        for level in release.levels():
            assert release.level(level).guarantee.epsilon == pytest.approx(0.25)

    def test_epsilon_override_keeps_every_other_config_field(self, dblp_graph):
        base = DisclosureConfig(
            epsilon_g=0.5,
            mechanism="laplace",
            specialization=SpecializationConfig(num_levels=4),
            allocation_ratio=3.0,
        )
        publisher = GraphPublisher(dblp_graph, base_config=base, rng=3)
        overridden = publisher.release(epsilon_g=0.3).config
        assert overridden == {**base.to_dict(), "epsilon_g": 0.3}
        assert (overridden["mechanism"], overridden["allocation_ratio"]) == ("laplace", 3.0)

    def test_total_mode_release_charges_epsilon_g(self, dblp_graph):
        base = DisclosureConfig(
            epsilon_g=0.6,
            specialization=SpecializationConfig(num_levels=4),
            budget_mode="total",
        )
        publisher = GraphPublisher(
            dblp_graph,
            total_budget=PrivacyBudget(epsilon=2.0, delta=1e-3),
            base_config=base,
            rng=3,
        )
        release = publisher.release()
        # The levels split epsilon_g; the release is charged all of it.
        level_epsilons = [release.level(level).guarantee.epsilon for level in release.levels()]
        assert sum(level_epsilons) == pytest.approx(0.6)
        assert max(level_epsilons) < 0.6
        assert publisher.spent().epsilon == pytest.approx(1.0 + 0.6)
        assert publisher.spent().delta == pytest.approx(1e-5)
        with pytest.raises(BudgetExceededError):
            publisher.release()  # another 0.6 would exceed 2.0

    def test_budget_enforced(self, dblp_graph, base_config):
        publisher = GraphPublisher(
            dblp_graph,
            total_budget=PrivacyBudget(epsilon=1.6, delta=1e-3),
            base_config=base_config,
            rng=3,
        )
        publisher.release()  # 1.0 (specialization) + 0.5
        with pytest.raises(BudgetExceededError):
            publisher.release()  # another 0.5 would exceed 1.6

    def test_specialization_budget_enforced(self, dblp_graph, base_config):
        publisher = GraphPublisher(
            dblp_graph,
            total_budget=PrivacyBudget(epsilon=0.5),
            base_config=base_config,
            rng=3,
        )
        with pytest.raises(BudgetExceededError):
            publisher.release()

    def test_unlimited_budget_only_records(self, dblp_graph, base_config):
        publisher = GraphPublisher(dblp_graph, base_config=base_config, rng=1)
        publisher.release()
        publisher.release()
        assert publisher.remaining() is None
        assert publisher.spent().epsilon == pytest.approx(2.0)

    def test_ledger_labels(self, publisher):
        publisher.release(label="quarterly-report")
        labels = [entry.label for entry in publisher.ledger.entries()]
        assert "specialization" in labels
        assert "quarterly-report" in labels

    def test_releases_are_reproducible_given_seed(self, dblp_graph, base_config):
        a = GraphPublisher(dblp_graph, base_config=base_config, rng=11).release()
        b = GraphPublisher(dblp_graph, base_config=base_config, rng=11).release()
        for level in a.levels():
            assert a.level(level).scalar_answer("total_association_count") == pytest.approx(
                b.level(level).scalar_answer("total_association_count")
            )

    def test_export_views(self, publisher, tmp_path):
        release = publisher.release()
        policy = AccessPolicy({"owner": 0, "public": 2}, top_level=4)
        written = publisher.export_views(release, policy, tmp_path / "views")
        assert set(written) == {"owner", "public"}
        public_doc = from_json_file(written["public"])
        assert public_doc["information_level"] == "I4,2"
        assert public_doc["release"]["level"] == 2
        # The export must not contain any other level's answers.
        assert "levels" not in public_doc

    def test_export_views_without_store_records_no_key(self, publisher, tmp_path):
        release = publisher.release()
        policy = AccessPolicy({"public": 2}, top_level=4)
        written = publisher.export_views(release, policy, tmp_path / "views")
        assert "release_key" not in from_json_file(written["public"])

    def test_export_views_persists_release_into_store(self, publisher, tmp_path):
        release = publisher.release()
        policy = AccessPolicy({"owner": 0, "public": 2}, top_level=4)
        store = ReleaseStore(tmp_path / "store.db")
        written = publisher.export_views(release, policy, tmp_path / "views", store=store)
        # Every role document records the same store key...
        keys = {from_json_file(path)["release_key"] for path in written.values()}
        assert len(keys) == 1
        (key,) = keys
        # ...and the stored artefact is the full release, so a serving layer
        # can re-derive any view without re-disclosing.
        stored = store.load(key)
        assert stored.to_dict() == release.to_dict()
        for role in policy.roles():
            view = policy.view_for(role, stored)
            assert view.to_dict() == from_json_file(written[role])["release"]

    def test_budget_exhaustion_does_not_record_the_failed_release(
        self, dblp_graph, base_config
    ):
        publisher = GraphPublisher(
            dblp_graph,
            total_budget=PrivacyBudget(epsilon=1.6, delta=1e-3),
            base_config=base_config,
            rng=3,
        )
        publisher.release()
        spent_before = publisher.spent().epsilon
        with pytest.raises(BudgetExceededError):
            publisher.release()
        # The refused release neither spends budget nor appears in history.
        assert publisher.spent().epsilon == pytest.approx(spent_before)
        assert len(publisher.releases()) == 1
        # A cheaper release that still fits the remaining budget goes through.
        release = publisher.release(epsilon_g=0.05)
        assert release.levels() == [0, 1, 2]
