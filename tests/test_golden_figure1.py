"""Golden regression test for the Figure-1 harness.

``tests/golden/figure1_small.json`` was generated from the seed repository's
original pure-Python execution path (a dblp-like graph with 250 authors, a
6-level hierarchy, seed 20170605) and checked in; its ``analytic`` and
``sampled`` entries were regenerated once since, when the specializer's
rounds were capped so that its privacy accounting holds, which changed the
hierarchy.  The harness must keep reproducing those per-level error metrics
within a tight tolerance, so a refactor of the graph core, the query layer
or the mechanisms cannot silently shift the paper's headline figure.

Regenerate (only when a change is *meant* to move the figure, and say which
values moved and why) with::

    PYTHONPATH=src python tests/test_golden_figure1.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.datasets.dblp_like import generate_dblp_like
from repro.evaluation.figure1 import Figure1Config, run_figure1, run_figure1_analytic

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "figure1_small.json"

#: Tight relative tolerance: the harness is deterministic for a fixed seed,
#: so anything beyond float round-off is a real regression.
RTOL = 1e-12


@pytest.fixture(scope="module")
def golden() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _golden_config(golden: dict) -> Figure1Config:
    spec = golden["config"]
    return Figure1Config(
        epsilons=tuple(spec["epsilons"]),
        num_levels=spec["num_levels"],
        num_trials=spec["num_trials"],
        delta=spec["delta"],
        mechanism=spec["mechanism"],
        seed=spec["seed"],
    )


def _golden_graph(golden: dict):
    graph_spec = golden["graph"]
    graph = generate_dblp_like(num_authors=graph_spec["num_authors"], seed=graph_spec["seed"])
    # The generator itself must not have drifted either.
    assert graph.num_left() == graph_spec["num_left"]
    assert graph.num_right() == graph_spec["num_right"]
    assert graph.num_associations() == graph_spec["num_associations"]
    return graph


def _assert_result_matches(result, expected: dict) -> None:
    assert result.epsilons == pytest.approx(expected["epsilons"], rel=RTOL)
    assert result.true_count == pytest.approx(expected["true_count"], rel=RTOL)
    assert {str(level) for level in result.sensitivities} == set(expected["sensitivities"])
    for level, sensitivity in result.sensitivities.items():
        assert sensitivity == pytest.approx(expected["sensitivities"][str(level)], rel=RTOL)
    assert {str(level) for level in result.series} == set(expected["series"])
    for level in result.levels():
        assert result.series_for(level) == pytest.approx(expected["series"][str(level)], rel=RTOL)


def test_analytic_figure1_matches_golden(golden):
    config = _golden_config(golden)
    result = run_figure1_analytic(graph=_golden_graph(golden), config=config)
    _assert_result_matches(result, golden["analytic"])


def test_sampled_figure1_matches_golden(golden):
    config = _golden_config(golden)
    result = run_figure1(graph=_golden_graph(golden), config=config)
    _assert_result_matches(result, golden["sampled"])



if __name__ == "__main__":
    document = json.loads(GOLDEN_PATH.read_text())
    config, graph = _golden_config(document), _golden_graph(document)
    document["analytic"] = run_figure1_analytic(graph=graph, config=config).to_dict()
    document["sampled"] = run_figure1(graph=graph, config=config).to_dict()
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
