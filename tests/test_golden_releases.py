"""Golden regression test for released values.

``tests/golden/releases_small.json`` pins, per released level, the
``sensitivity``, ``noise_scale`` and noisy ``answers`` of a handful of
seeded runs: the paper's discloser on a 120-author dblp-like graph with a
5-level hierarchy under every mechanism, a two-query workload, the
individual, naive and uniform baselines, and the safe-grouping pair counts.
It was generated with the one compiled-array execution path (the library
default) and guards every later refactor of calibration and perturbation:
the values must stay byte-identical.

Regenerate (only when a change is *meant* to move a released value, and say
which entry moved and why) with::

    PYTHONPATH=src python tests/test_golden_releases.py

which runs :func:`compute_golden` and writes the JSON file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.individual_dp import IndividualDPDiscloser
from repro.baselines.naive_group import NaiveGroupDPDiscloser
from repro.baselines.safe_grouping import SafeGroupingDiscloser
from repro.baselines.uniform_noise import UniformNoiseDiscloser
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.datasets.dblp_like import generate_dblp_like
from repro.datasets.pharmacy import generate_pharmacy_purchases
from repro.grouping.specialization import SpecializationConfig, Specializer
from repro.queries.counts import TotalAssociationCountQuery
from repro.queries.degree import DegreeHistogramQuery

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "releases_small.json"

#: (mechanism, discloser seed) of the single-query discloser entries.
MECHANISM_RUNS = (("gaussian", 31), ("laplace", 31), ("analytic_gaussian", 31), ("geometric", 13))


def _levels(release) -> dict:
    return {
        str(level): {
            "sensitivity": release.level(level).sensitivity,
            "noise_scale": release.level(level).noise_scale,
            "answers": release.level(level).answers,
        }
        for level in release.levels()
    }


def _discloser_release(mechanism: str, seed: int, queries=None):
    config = DisclosureConfig(
        epsilon_g=0.8,
        mechanism=mechanism,
        specialization=SpecializationConfig(num_levels=5),
    )
    graph = generate_dblp_like(num_authors=120, seed=9)
    return MultiLevelDiscloser(config=config, queries=queries, rng=seed).disclose(graph)


def _baseline_release(baseline: str):
    graph = generate_dblp_like(num_authors=200, seed=42)
    hierarchy = Specializer(config=SpecializationConfig(num_levels=5), rng=11).build(graph).hierarchy
    if baseline == "individual":
        return IndividualDPDiscloser(mechanism="gaussian", rng=3).as_multi_level_release(
            graph, hierarchy
        )
    if baseline == "naive":
        return NaiveGroupDPDiscloser(rng=3).disclose(graph, hierarchy)
    return UniformNoiseDiscloser(rng=3).disclose(graph, hierarchy)


def _safe_grouping_counts() -> list:
    graph = generate_pharmacy_purchases(num_patients=150, num_drugs=40, seed=7)
    release = SafeGroupingDiscloser(k=3, rng=7).disclose(graph)
    return release.to_dict()["group_pair_counts"]


def compute_golden() -> dict:
    """Every pinned value, in the JSON file's layout."""
    golden = {
        f"discloser/{mechanism}": _levels(_discloser_release(mechanism, seed))
        for mechanism, seed in MECHANISM_RUNS
    }
    queries = [TotalAssociationCountQuery(), DegreeHistogramQuery(max_degree=15)]
    golden["discloser/gaussian-multi-query"] = _levels(
        _discloser_release("gaussian", 5, queries=queries)
    )
    for baseline in ("individual", "naive", "uniform"):
        golden[f"baseline/{baseline}"] = _levels(_baseline_release(baseline))
    golden["safe_grouping/pair_counts"] = _safe_grouping_counts()
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _roundtrip(value):
    """The value as the JSON file stores it (string level keys, lists)."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("mechanism,seed", MECHANISM_RUNS, ids=[m for m, _ in MECHANISM_RUNS])
def test_discloser_release_matches_golden(golden, mechanism, seed):
    actual = _roundtrip(_levels(_discloser_release(mechanism, seed)))
    assert actual == golden[f"discloser/{mechanism}"]


def test_multi_query_release_matches_golden(golden):
    queries = [TotalAssociationCountQuery(), DegreeHistogramQuery(max_degree=15)]
    actual = _roundtrip(_levels(_discloser_release("gaussian", 5, queries=queries)))
    assert actual == golden["discloser/gaussian-multi-query"]


@pytest.mark.parametrize("baseline", ["individual", "naive", "uniform"])
def test_baseline_release_matches_golden(golden, baseline):
    actual = _roundtrip(_levels(_baseline_release(baseline)))
    assert actual == golden[f"baseline/{baseline}"]


def test_safe_grouping_counts_match_golden(golden):
    assert _roundtrip(_safe_grouping_counts()) == golden["safe_grouping/pair_counts"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
