"""Golden regression test for phase-1 group hierarchies.

``tests/golden/hierarchies_small.json`` pins, for six specializer
configurations on dblp-like graphs of 120 and 300 authors (two graph seeds
each), every level's group ids, sides and sizes in ``groups()`` order, the
level's legacy partition digest (which pins exact membership), and the
run's ``num_selections``.  Ids and sizes are space-joined strings, and
sides one ``l``/``r``/``m`` letter per group, to keep the file small.  The configurations are the private
:class:`Specializer` with its default splitter and score, the two
baselines (:class:`DeterministicSpecializer`, :class:`RandomSpecializer`),
and the private specializer with :class:`DegreeOrderSplitter`,
:class:`BalanceScore` and :class:`EdgeUniformityScore`.  Every random draw
(Exponential-Mechanism choices, the random baseline's index draws and
permutations) shows up in these values, so a refactor of the specializer
that moves, adds or drops a draw fails here.

The file was generated by this snippet (:func:`describe_run`), which is
also what the test recomputes for each run::

    graph = generate_dblp_like(num_authors=authors, seed=seed)
    result = SPECIALIZERS[name](seed + 100).build(graph)
    for level, partition in result.hierarchy.iter_levels():
        groups = partition.groups()
        levels[str(level)] = {
            "ids": " ".join(group.group_id for group in groups),
            "sides": "".join(group.side[0] for group in groups),
            "sizes": " ".join(str(len(group)) for group in groups),
            "digest": legacy_fingerprint_partition(partition),
        }
    golden[f"{name}/{authors}/{seed}"] = {
        "num_selections": result.num_selections, "levels": levels}

Regenerate (only when a change is *meant* to move a hierarchy, and say which
entry moved and why) with::

    PYTHONPATH=src python tests/test_golden_hierarchies.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.common import legacy_fingerprint_partition
from repro.datasets.dblp_like import generate_dblp_like
from repro.grouping.scores import BalanceScore, EdgeUniformityScore
from repro.grouping.specialization import (
    DeterministicSpecializer,
    RandomSpecializer,
    SpecializationConfig,
    Specializer,
)
from repro.grouping.splitters import DegreeOrderSplitter

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "hierarchies_small.json"

#: (authors, graph seed) of every pinned graph.
GRAPHS = ((120, 3), (120, 8), (300, 3), (300, 8))

#: Six levels reach groups at ``min_group_size`` on both graph sizes, so the
#: carry-down path is pinned too.
CONFIG = SpecializationConfig(num_levels=6)

SPECIALIZERS = {
    "specializer": lambda rng: Specializer(config=CONFIG, rng=rng),
    "deterministic": lambda rng: DeterministicSpecializer(config=CONFIG, rng=rng),
    "random": lambda rng: RandomSpecializer(config=CONFIG, rng=rng),
    "degree-order": lambda rng: Specializer(
        config=CONFIG, splitter=DegreeOrderSplitter(CONFIG.cut_fractions), rng=rng
    ),
    "balance-score": lambda rng: Specializer(config=CONFIG, score=BalanceScore(), rng=rng),
    "edge-uniformity": lambda rng: Specializer(
        config=CONFIG, score=EdgeUniformityScore(), rng=rng
    ),
}

#: The specializer seed of each run is derived from the graph's.
SPECIALIZER_SEED_OFFSET = 100


def run_key(name: str, authors: int, seed: int) -> str:
    return f"{name}/{authors}/{seed}"


def describe_run(name: str, authors: int, seed: int) -> dict:
    """One run's pinned values."""
    graph = generate_dblp_like(num_authors=authors, seed=seed)
    result = SPECIALIZERS[name](seed + SPECIALIZER_SEED_OFFSET).build(graph)
    levels = {}
    for level, partition in result.hierarchy.iter_levels():
        groups = partition.groups()
        levels[str(level)] = {
            "ids": " ".join(group.group_id for group in groups),
            "sides": "".join(group.side[0] for group in groups),
            "sizes": " ".join(str(len(group)) for group in groups),
            "digest": legacy_fingerprint_partition(partition),
        }
    return {"num_selections": result.num_selections, "levels": levels}


def compute_golden() -> dict:
    """Every pinned run, in the JSON file's layout."""
    return {
        run_key(name, authors, seed): describe_run(name, authors, seed)
        for name in SPECIALIZERS
        for authors, seed in GRAPHS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(
        run_key(name, authors, seed) for name in SPECIALIZERS for authors, seed in GRAPHS
    )


@pytest.mark.parametrize("name", sorted(SPECIALIZERS))
@pytest.mark.parametrize("authors,seed", GRAPHS, ids=[f"{a}-{s}" for a, s in GRAPHS])
def test_hierarchy_matches_golden(golden, name, authors, seed):
    assert describe_run(name, authors, seed) == golden[run_key(name, authors, seed)]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
