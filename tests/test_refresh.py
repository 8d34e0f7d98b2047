"""Tests for incremental re-disclosure (`repro.core.refresh`).

The contract under test: a refresh re-perturbs **only** the levels whose
content fingerprints moved, reuses every other level byte-for-byte at zero
privacy cost, and — because affected levels re-derive the *original*
disclosure's noise streams — produces a release bit-identical to disclosing
the mutated graph from scratch under the same seed.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting.budget import PrivacyBudget
from repro.core.common import FINGERPRINT_VERSION, fingerprint_partition, normalise_workload
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.pipeline import CompileStage, GroupCalibrateStage, PipelineContext, level_fingerprints_for
from repro.core.publisher import GraphPublisher
from repro.core.refresh import RefreshResult, refresh_release
from repro.core.release import MultiLevelRelease
from repro.core.store import ReleaseStore
from repro.exceptions import DisclosureError, ValidationError
from repro.graphs.bipartite import BipartiteGraph
from repro.grouping.hierarchy import GroupHierarchy
from repro.datasets.dblp_like import generate_dblp_like
from repro.grouping.partition import Group, NodeTable, Partition
from repro.grouping.specialization import SpecializationConfig
from repro.queries.counts import GroupedAssociationCountQuery


def release_payload(release):
    """A release's full content with the lineage-bearing provenance removed.

    Refreshed releases intentionally record extra lineage keys
    (``refreshed_from_revision`` etc.), so bit-parity is asserted on
    everything *except* provenance — plus a separate check that the level
    fingerprints themselves agree.
    """
    payload = release.to_dict()
    payload.pop("provenance")
    return payload


@pytest.fixture
def config():
    return DisclosureConfig(epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4))


@pytest.fixture
def mutated(dblp_graph):
    """A private copy of the shared graph, safe to mutate."""
    return dblp_graph.copy()


class TestRefreshParity:
    def test_refresh_matches_from_scratch_disclosure(self, mutated, config):
        discloser = MultiLevelDiscloser(config=config, rng=123)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)

        left = next(iter(mutated.left_nodes()))
        right = next(iter(mutated.right_nodes()))
        if mutated.has_association(left, right):
            mutated.remove_association(left, right)
        else:
            mutated.add_association(left, right)

        result = discloser.refresh(release, mutated, hierarchy=hierarchy)

        # A brand-new discloser with the same seed, disclosing the mutated
        # graph from scratch against the same hierarchy, must agree exactly.
        scratch = MultiLevelDiscloser(config=config, rng=123)
        expected = scratch.disclose(mutated, hierarchy=hierarchy)

        assert release_payload(result.release) == release_payload(expected)
        assert (
            result.release.provenance["level_fingerprints"]
            == expected.provenance["level_fingerprints"]
        )

    def test_refresh_is_deterministic(self, mutated, config):
        discloser = MultiLevelDiscloser(config=config, rng=9)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        left = next(iter(mutated.left_nodes()))
        mutated.add_right_node("brand-new-paper")
        mutated.add_association(left, "brand-new-paper")
        first = discloser.refresh(release, mutated, hierarchy=hierarchy)
        second = discloser.refresh(release, mutated, hierarchy=hierarchy)
        assert release_payload(first.release) == release_payload(second.release)


class TestNoOpRefresh:
    def test_unmutated_graph_reuses_every_level(self, mutated, config):
        discloser = MultiLevelDiscloser(config=config, rng=5)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        before = discloser.ledger.spent().epsilon

        result = discloser.refresh(release, mutated, hierarchy=hierarchy)

        assert result.affected_levels == []
        assert result.reused_levels == release.levels()
        assert result.levels_reperturbed == 0
        assert result.cost.epsilon == 0.0 and result.cost.delta == 0.0
        # Reused levels are the *same objects* — nothing was recomputed ...
        for level in release.levels():
            assert result.release.level_releases[level] is release.level_releases[level]
        # ... and nothing was charged.
        assert discloser.ledger.spent().epsilon == pytest.approx(before)

    def test_empty_graph_rejected(self, mutated, config):
        discloser = MultiLevelDiscloser(config=config, rng=5)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        with pytest.raises(DisclosureError):
            discloser.refresh(release, BipartiteGraph(), hierarchy=hierarchy)

    def test_empty_graph_message_names_the_refresh(self, mutated, config):
        discloser = MultiLevelDiscloser(config=config, rng=5)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        with pytest.raises(DisclosureError, match="^cannot refresh against an empty graph$"):
            refresh_release(release, BipartiteGraph(), hierarchy, config=config)

    def test_release_without_fingerprints_refreshes_every_level(self, mutated, config):
        discloser = MultiLevelDiscloser(config=config, rng=5)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        # A legacy release (stored before fingerprints existed) round-trips
        # with empty provenance: the refresh must conservatively re-perturb
        # everything rather than reuse unverifiable levels.
        legacy = MultiLevelRelease.from_dict(release.to_dict())
        legacy.provenance = {}
        result = discloser.refresh(legacy, mutated, hierarchy=hierarchy)
        assert result.affected_levels == release.levels()
        assert result.reused_levels == []


class TestPartialRefresh:
    """Only the levels whose sensitivity or answers moved are re-perturbed."""

    @staticmethod
    def build_scene():
        """A hand-built graph + 2-level hierarchy with a known worst group.

        Left groups: {a, b} (3 incident associations) and {c, d} (1).  The
        mutation adds ``c--r3``: the root's incident count moves 4 -> 5
        (level 1 affected) while level 0's max stays 3 (level 0 reused).
        The query partition excludes ``c`` and ``r3`` entirely, so the true
        answers are unchanged by the mutation.
        """
        graph = BipartiteGraph(name="partial-refresh")
        graph.add_left_nodes(["a", "b", "c", "d"])
        graph.add_right_nodes(["r1", "r2", "r3", "r4"])
        graph.add_associations([("a", "r1"), ("a", "r2"), ("b", "r1"), ("c", "r4")])
        level1 = Partition([Group("root", ["a", "b", "c", "d"], level=1)])
        level0 = Partition(
            [Group("root/0", ["a", "b"], level=0), Group("root/1", ["c", "d"], level=0)]
        )
        hierarchy = GroupHierarchy({0: level0, 1: level1})
        query = GroupedAssociationCountQuery(
            Partition([Group("probe", ["a", "r1", "r2"], side="mixed")])
        )
        config = DisclosureConfig(
            epsilon_g=1.0,
            mechanism="laplace",
            specialization=SpecializationConfig(num_levels=1),
            release_levels=[0, 1],
        )
        return graph, hierarchy, query, config

    def test_only_sensitivity_shifted_levels_reperturbed(self):
        graph, hierarchy, query, config = self.build_scene()
        discloser = MultiLevelDiscloser(config=config, queries=query, rng=77)
        release = discloser.disclose(graph, hierarchy=hierarchy)

        graph.add_association("c", "r3")
        result = discloser.refresh(release, graph, hierarchy=hierarchy)

        assert result.affected_levels == [1]
        assert result.reused_levels == [0]
        assert result.release.level_releases[0] is release.level_releases[0]
        assert result.release.level_releases[1] is not release.level_releases[1]
        assert result.cost.epsilon == pytest.approx(1.0)
        # The refreshed level-1 release still matches a from-scratch run.
        scratch = MultiLevelDiscloser(config=config, queries=query, rng=77)
        expected = scratch.disclose(graph, hierarchy=hierarchy)
        assert release_payload(result.release) == release_payload(expected)

    def test_answer_only_mutation_refreshes_all_levels(self):
        graph, hierarchy, query, config = self.build_scene()
        discloser = MultiLevelDiscloser(config=config, queries=query, rng=77)
        release = discloser.disclose(graph, hierarchy=hierarchy)
        # b--r2 lands inside the probe group's induced subgraph: the answers
        # move, so every level's fingerprint moves.
        graph.add_association("b", "r2")
        result = discloser.refresh(release, graph, hierarchy=hierarchy)
        assert result.affected_levels == [0, 1]


class TestRefreshProvenance:
    def test_lineage_recorded(self, mutated, config):
        discloser = MultiLevelDiscloser(config=config, rng=2)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        original_revision = release.provenance["graph_revision"]
        left = next(iter(mutated.left_nodes()))
        mutated.add_right_node("fresh-right")
        mutated.add_association(left, "fresh-right")

        result = discloser.refresh(release, mutated, hierarchy=hierarchy)
        provenance = result.release.provenance
        assert provenance["graph_revision"] == mutated.revision
        assert provenance["refreshed_from_revision"] == original_revision
        assert provenance["affected_levels"] == result.affected_levels
        assert provenance["reused_levels"] == result.reused_levels
        assert provenance["noise_draw"] == release.provenance["noise_draw"]
        assert set(provenance["level_fingerprints"]) == {
            str(level) for level in release.levels()
        }

    def test_revision_override_for_file_loaded_graphs(self, mutated, config):
        discloser = MultiLevelDiscloser(config=config, rng=2)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        result = refresh_release(
            release,
            mutated,
            hierarchy,
            config=config,
            noise_seed=discloser._noise_seeds.seed_for(1),
            revision=4242,
        )
        assert result.release.provenance["graph_revision"] == 4242

    def test_provenance_survives_store_round_trip(self, mutated, config, tmp_path):
        discloser = MultiLevelDiscloser(config=config, rng=2)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release, key="live")
        loaded = store.load(key)
        assert loaded.provenance == release.provenance
        # A refresh driven by the *loaded* release behaves identically.
        result = discloser.refresh(loaded, mutated, hierarchy=hierarchy)
        assert result.affected_levels == []

    @pytest.mark.parametrize(
        "retired",
        [{"engine": "reference"}, {"executor": "process", "max_workers": 4}],
        ids=["engine", "executor"],
    )
    def test_release_with_retired_settings_refreshes(self, mutated, config, tmp_path, retired):
        """Older versions recorded ``"engine"`` (and later the per-level
        ``"executor"`` pool and its ``"max_workers"``) in the stored config;
        such a release still loads, rebuilds its config and refreshes exactly
        like a current one."""
        discloser = MultiLevelDiscloser(config=config, rng=5)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        release.config.update(retired)
        store = ReleaseStore(tmp_path / "store.db")
        loaded = store.load(store.save(release, key="old"))
        assert {key: loaded.config[key] for key in retired} == retired

        restored = DisclosureConfig.from_dict(loaded.config)
        assert restored.to_dict() == config.to_dict()
        mutated.add_right_node("fresh-right")
        mutated.add_association(next(iter(mutated.left_nodes())), "fresh-right")
        result = MultiLevelDiscloser(config=restored, rng=5).refresh(
            loaded, mutated, hierarchy=hierarchy
        )
        assert result.affected_levels

        expected = MultiLevelDiscloser(config=config, rng=5).disclose(mutated, hierarchy=hierarchy)
        assert result.release.levels() == expected.levels()
        assert release_payload(result.release) == release_payload(expected)


class TestSinglePass:
    def test_full_reperturb_fingerprints_each_level_once(self, mutated, config, monkeypatch):
        """A refresh is one pipeline run: every level is fingerprinted once,
        over one digest of the true answers."""
        from repro.core import pipeline

        discloser = MultiLevelDiscloser(config=config, rng=3)
        hierarchy = discloser.build_hierarchy(mutated)
        release = discloser.disclose(mutated, hierarchy=hierarchy)
        mutated.add_right_node("fresh-right")
        mutated.add_association(next(iter(mutated.left_nodes())), "fresh-right")

        calls = {"fingerprint_level": 0, "fingerprint_answers": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        result = discloser.refresh(release, mutated, hierarchy=hierarchy)

        assert result.affected_levels == release.levels()
        assert calls == {"fingerprint_level": len(release.levels()), "fingerprint_answers": 1}


class TestPublisherRefresh:
    @pytest.fixture
    def publisher(self, mutated, config):
        return GraphPublisher(
            mutated,
            total_budget=PrivacyBudget(epsilon=50.0, delta=1e-2),
            base_config=config,
            rng=7,
        )

    def test_noop_refresh_spends_nothing(self, publisher):
        publisher.release()
        before = publisher.spent().epsilon
        result = publisher.refresh()
        assert result.affected_levels == []
        assert publisher.spent().epsilon == pytest.approx(before)

    def test_mutation_refresh_charges_once(self, publisher, mutated):
        release = publisher.release()
        before = publisher.spent().epsilon
        left = next(iter(mutated.left_nodes()))
        mutated.add_right_node("late-paper")
        mutated.add_association(left, "late-paper")
        result = publisher.refresh(release=release)
        assert result.affected_levels  # the count workload moved
        # Charged exactly the worst affected level's epsilon, once.
        assert publisher.spent().epsilon == pytest.approx(before + result.cost.epsilon)
        assert result.release in publisher.releases()

    def test_foreign_release_rejected(self, publisher, mutated, config):
        publisher.release()
        foreign = MultiLevelDiscloser(config=config, rng=1)
        other = foreign.disclose(mutated, hierarchy=foreign.build_hierarchy(mutated))
        with pytest.raises(ValidationError):
            publisher.refresh(release=other)

    def test_refresh_before_any_release_rejected(self, publisher):
        with pytest.raises(DisclosureError):
            publisher.refresh()

    def test_store_routing_archives_and_republishes(self, publisher, mutated, tmp_path):
        release = publisher.release()
        store = ReleaseStore(tmp_path / "store.db")
        store.save(release, key="live")
        stale_fingerprint = store.fingerprint("live")

        left = next(iter(mutated.left_nodes()))
        mutated.add_right_node("late-paper")
        mutated.add_association(left, "late-paper")
        result = publisher.refresh(release=release, store=store, key="live")

        # Archived under a revision-qualified key AND republished at the
        # live alias, whose fingerprint change is what serving watches.
        assert result.store_key == f"live-r{mutated.revision}"
        assert result.store_key in store.keys()
        assert store.fingerprint("live") != stale_fingerprint
        assert not result.reused_from_store
        assert (
            store.load_document("live")["provenance"]["graph_revision"] == mutated.revision
        )

    def test_store_repeat_refresh_reuses_artifact_zero_spend(
        self, publisher, mutated, tmp_path
    ):
        release = publisher.release()
        store = ReleaseStore(tmp_path / "store.db")
        store.save(release, key="live")
        left = next(iter(mutated.left_nodes()))
        mutated.add_right_node("late-paper")
        mutated.add_association(left, "late-paper")
        first = publisher.refresh(release=release, store=store, key="live")
        spent = publisher.spent().epsilon

        second = publisher.refresh(release=release, store=store, key="live")
        assert second.reused_from_store
        assert second.store_key == first.store_key
        assert second.affected_levels == first.affected_levels
        assert publisher.spent().epsilon == pytest.approx(spent)

    def test_store_noop_refresh_saves_nothing(self, publisher, mutated, tmp_path):
        release = publisher.release()
        store = ReleaseStore(tmp_path / "store.db")
        store.save(release, key="live")
        live = store.fingerprint("live")
        mutated.add_right_node("unlinked-paper")  # a new revision, no level moves

        result = publisher.refresh(release=release, store=store, key="live")
        assert result.affected_levels == [] and result.store_key is None
        assert store.keys() == ["live"]
        assert store.fingerprint("live") == live

    def test_store_refresh_back_to_the_base_republishes(self, publisher, mutated, tmp_path):
        """A refresh that moves no level against its base release still
        republishes when ``key`` holds a later refresh."""
        release = publisher.release()
        store = ReleaseStore(tmp_path / "store.db")
        store.save(release, key="live")
        left = next(iter(mutated.left_nodes()))
        mutated.add_right_node("late-paper")
        mutated.add_association(left, "late-paper")
        publisher.refresh(release=release, store=store, key="live")
        mutated.remove_association(left, "late-paper")  # back to the base levels

        result = publisher.refresh(release=release, store=store, key="live")
        assert result.affected_levels == []
        assert result.store_key == f"live-r{mutated.revision}"
        assert store.load("live").level_releases.keys() == release.level_releases.keys()
        for level, view in release.level_releases.items():
            assert store.load("live").level_releases[level].answers == view.answers

    def test_store_requires_key(self, publisher, tmp_path):
        publisher.release()
        with pytest.raises(ValidationError):
            publisher.refresh(store=ReleaseStore(tmp_path / "store.db"))


# ----------------------------------------------------------------------
# Fingerprint versions
# ----------------------------------------------------------------------
UNVERSIONED_RELEASE = Path(__file__).resolve().parent / "golden" / "release_unversioned.json"


class TestUnversionedRelease:
    """A release stored before partition digests were versioned.

    ``tests/golden/release_unversioned.json`` was saved by the previous
    (JSON-digest) implementation from::

        config = DisclosureConfig(epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4))
        graph = generate_dblp_like(num_authors=120, seed=9)
        discloser = MultiLevelDiscloser(config=config, rng=5)
        hierarchy = discloser.build_hierarchy(graph)
        release = discloser.disclose(graph, hierarchy=hierarchy)

    Its ``level_fingerprints`` carry legacy digests and it has no
    ``fingerprint_version``.  When the specializer's rounds were capped
    (which moved this hierarchy) it was re-saved in the same layout: the
    snippet's ``release.to_dict()`` without ``fingerprint_version``, with
    :meth:`legacy_fingerprints` as its ``level_fingerprints``, written with
    ``json.dumps(document, indent=1, sort_keys=True)``.
    """

    @pytest.fixture
    def setup(self):
        config = DisclosureConfig(epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4))
        graph = generate_dblp_like(num_authors=120, seed=9)
        discloser = MultiLevelDiscloser(config=config, rng=5)
        hierarchy = discloser.build_hierarchy(graph)
        release = MultiLevelRelease.from_dict(json.loads(UNVERSIONED_RELEASE.read_text()))
        return config, graph, discloser, hierarchy, release

    @staticmethod
    def legacy_fingerprints(config, graph, hierarchy):
        context = PipelineContext(
            graph=graph,
            workload=normalise_workload(None),
            hierarchy=hierarchy,
            requested_levels=config.resolved_release_levels(),
            config=config,
            release_config=config.to_dict(),
        )
        CompileStage().run(context)
        GroupCalibrateStage().run(context)
        return level_fingerprints_for(context, legacy=True)

    def test_stored_release_is_unversioned_and_matches_legacy_digests(self, setup):
        config, graph, _, hierarchy, release = setup
        assert "fingerprint_version" not in release.provenance
        assert self.legacy_fingerprints(config, graph, hierarchy) == release.provenance["level_fingerprints"]

    def test_unchanged_graph_reuses_every_level_without_charge(self, setup):
        _, graph, discloser, hierarchy, release = setup
        before = discloser.ledger.spent()

        result = discloser.refresh(release, graph, hierarchy=hierarchy)

        assert result.affected_levels == []
        assert result.reused_levels == release.levels()
        assert result.cost.epsilon == 0.0 and result.cost.delta == 0.0
        assert discloser.ledger.spent() == before
        provenance = result.release.provenance
        assert provenance["fingerprint_version"] == FINGERPRINT_VERSION
        fresh = MultiLevelDiscloser(config=discloser.config, rng=5).disclose(graph, hierarchy=hierarchy)
        assert provenance["level_fingerprints"] == fresh.provenance["level_fingerprints"]
        assert release_payload(result.release) == release_payload(fresh)

    def test_edge_insert_reperturbs_exactly_the_levels_whose_legacy_digests_moved(self, setup):
        config, graph, discloser, hierarchy, release = setup
        left = sorted(graph.left_nodes(), key=str)[0]
        right = next(r for r in sorted(graph.right_nodes(), key=str) if not graph.has_association(left, r))
        graph.add_association(left, right)
        stored = release.provenance["level_fingerprints"]
        legacy = self.legacy_fingerprints(config, graph, hierarchy)
        moved = [level for level in release.levels() if legacy[str(level)] != stored[str(level)]]
        assert moved

        result = discloser.refresh(release, graph, hierarchy=hierarchy)

        assert result.affected_levels == moved
        assert result.release.provenance["fingerprint_version"] == FINGERPRINT_VERSION
        fresh = MultiLevelDiscloser(config=config, rng=5).disclose(graph, hierarchy=hierarchy)
        assert release_payload(result.release) == release_payload(fresh)

    def test_refreshed_release_is_compared_by_v2_digests_next_time(self, setup):
        _, graph, discloser, hierarchy, release = setup
        first = discloser.refresh(release, graph, hierarchy=hierarchy).release
        second = discloser.refresh(first, graph, hierarchy=hierarchy)
        assert second.affected_levels == []


def _partition_strategy():
    """Random partitions as ``(groups, levels)``: group specs and a level per group."""
    nodes = st.lists(
        st.one_of(st.integers(-50, 50), st.text(alphabet="ab1:", min_size=1, max_size=3)),
        min_size=2,
        max_size=12,
        unique_by=lambda node: (type(node).__name__, node),
    )

    @st.composite
    def build(draw):
        universe = draw(nodes)
        num_groups = draw(st.integers(1, len(universe)))
        owner = draw(st.lists(st.integers(0, num_groups - 1), min_size=len(universe), max_size=len(universe)))
        sides = draw(st.lists(st.sampled_from(["left", "right", "mixed"]), min_size=num_groups, max_size=num_groups))
        levels = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=num_groups, max_size=num_groups))
        return [
            (f"g{index}", [node for node, code in zip(universe, owner) if code == index], sides[index], levels[index])
            for index in range(num_groups)
        ]

    return build()


def _partition(spec, group_order=None, member_order=None):
    order = group_order if group_order is not None else range(len(spec))
    groups = []
    for index in order:
        group_id, members, side, level = spec[index]
        members = list(members)
        if member_order is not None:
            member_order.shuffle(members)
        groups.append(Group(group_id, members, side=side, level=level))
    return Partition(groups)


class TestPartitionDigestV2:
    @settings(max_examples=80, deadline=None)
    @given(_partition_strategy(), st.randoms(use_true_random=False))
    def test_content_equal_partitions_digest_equally(self, spec, random):
        group_order = list(range(len(spec)))
        random.shuffle(group_order)
        shuffled = _partition(spec, group_order=group_order, member_order=random)
        original = _partition(spec)
        assert fingerprint_partition(shuffled) == fingerprint_partition(original)
        # Same content, built from a label vector over a permuted node table.
        nodes = list(original.table.nodes)
        random.shuffle(nodes)
        table = NodeTable(nodes)
        labels = [original.codes[original.group_of(node).group_id] for node in nodes]
        relabelled = Partition.from_labels(table, labels, original.group_ids(), original.sides, original.levels)
        assert fingerprint_partition(relabelled) == fingerprint_partition(original)

    @settings(max_examples=80, deadline=None)
    @given(_partition_strategy(), st.data())
    def test_any_single_change_moves_the_digest(self, spec, data):
        digest = fingerprint_partition(_partition(spec))
        index = data.draw(st.integers(0, len(spec) - 1))
        group_id, members, side, level = spec[index]
        changes = [
            (f"{group_id}x", members, side, level),
            (group_id, members, {"left": "right", "right": "mixed", "mixed": "left"}[side], level),
            (group_id, members, side, 7 if level != 7 else None),
        ]
        for changed in changes:
            assert fingerprint_partition(_partition(spec[:index] + [changed] + spec[index + 1 :])) != digest
        donors = [i for i, group in enumerate(spec) if group[1] and i != index]
        if donors:
            donor = data.draw(st.sampled_from(donors))
            moved = spec[donor][1][0]
            altered = list(spec)
            altered[donor] = (spec[donor][0], spec[donor][1][1:], spec[donor][2], spec[donor][3])
            altered[index] = (group_id, members + [moved], side, level)
            assert fingerprint_partition(_partition(altered)) != digest
