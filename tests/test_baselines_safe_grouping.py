"""Tests for the safe-grouping baseline."""

import pytest

from repro.baselines.safe_grouping import SafeGroupingDiscloser
from repro.exceptions import GroupingError
from repro.graphs.bipartite import BipartiteGraph


class TestSafeGroupingDiscloser:
    def test_release_covers_both_sides(self, dblp_graph):
        release = SafeGroupingDiscloser(k=3, rng=0).disclose(dblp_graph)
        assert release.left_partition.universe() == frozenset(dblp_graph.left_nodes())
        assert release.right_partition.universe() == frozenset(dblp_graph.right_nodes())

    def test_total_associations_exact(self, dblp_graph):
        release = SafeGroupingDiscloser(k=3, rng=0).disclose(dblp_graph)
        assert release.total_associations() == dblp_graph.num_associations()

    def test_pair_counts_match_per_association_loop(self, dblp_graph):
        """The bincount over compiled edge arrays equals a plain count of
        every association under the published partitions."""
        release = SafeGroupingDiscloser(k=3, rng=2).disclose(dblp_graph)
        left_of = {n: g.group_id for g in release.left_partition.groups() for n in g.members}
        right_of = {n: g.group_id for g in release.right_partition.groups() for n in g.members}
        expected = {}
        for left, right in dblp_graph.associations():
            key = (left_of[left], right_of[right])
            expected[key] = expected.get(key, 0) + 1
        assert release.group_pair_counts == expected

    def test_group_pair_counts_consistent(self, tiny_graph):
        release = SafeGroupingDiscloser(k=2, rng=1).disclose(tiny_graph)
        assert sum(release.group_pair_counts.values()) == 5
        left_id = release.left_partition.group_of("bob").group_id
        right_id = release.right_partition.group_of("insulin").group_id
        assert release.count_between(left_id, right_id) >= 1
        assert release.count_between("SGL999", "SGR999") == 0

    def test_group_sizes_respect_k_on_large_graphs(self, dblp_graph):
        k = 4
        release = SafeGroupingDiscloser(k=k, rng=0).disclose(dblp_graph)
        sizes = list(release.left_partition.sizes().values())
        # Greedy construction targets n/k groups; the average size is >= k.
        assert sum(sizes) / len(sizes) >= k - 1

    def test_safety_violations_reported(self, dblp_graph):
        discloser = SafeGroupingDiscloser(k=3, rng=0)
        release = discloser.disclose(dblp_graph)
        violations = SafeGroupingDiscloser.safety_violations(dblp_graph, release)
        assert violations >= 0
        # Safety violations must be far fewer than the number of within-group pairs.
        total_pairs = sum(
            len(group) * (len(group) - 1) // 2
            for partition in (release.left_partition, release.right_partition)
            for group in partition.groups()
        )
        assert violations < total_pairs

    def test_empty_graph_rejected(self):
        with pytest.raises(GroupingError):
            SafeGroupingDiscloser().disclose(BipartiteGraph())

    def test_seeded_reproducibility(self, tiny_graph):
        a = SafeGroupingDiscloser(k=2, rng=5).disclose(tiny_graph)
        b = SafeGroupingDiscloser(k=2, rng=5).disclose(tiny_graph)
        assert a.group_pair_counts == b.group_pair_counts

    def test_to_dict(self, tiny_graph):
        release = SafeGroupingDiscloser(k=2, rng=5).disclose(tiny_graph)
        data = release.to_dict()
        assert data["k"] == 2
        assert len(data["group_pair_counts"]) == len(release.group_pair_counts)

    def test_invalid_k(self):
        with pytest.raises(Exception):
            SafeGroupingDiscloser(k=0)
