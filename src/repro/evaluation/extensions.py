"""Extension experiments beyond the paper's evaluation.

The paper's figure varies only ``epsilon_g``.  Two further knobs materially
shape the privilege/accuracy trade-off and are natural follow-up questions a
user of the system asks; both are implemented here and benchmarked
(``benchmarks/test_bench_extensions.py``):

* **hierarchy depth** (:func:`run_depth_sweep`) — how the number of
  specialization levels changes the per-level error profile and the
  "privilege gap" (ratio between the coarsest and finest level's error);
* **delta** (:func:`run_delta_sweep`) — how the Gaussian mechanism's failure
  probability trades off against the error at a fixed ``epsilon_g``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.common import build_mechanism
from repro.datasets.registry import load_dataset
from repro.evaluation.figure1 import Figure1Config, build_figure1_hierarchy, level_sensitivities
from repro.exceptions import EvaluationError
from repro.graphs.bipartite import BipartiteGraph


def privilege_gap(rer_by_level: Dict[int, float]) -> float:
    """Ratio of the coarsest level's error to the finest level's error.

    A gap of 1 means every privilege tier sees the same accuracy (no
    privilege gradient); the paper's setting exhibits gaps of 1-3 orders of
    magnitude.
    """
    if not rer_by_level:
        raise EvaluationError("rer_by_level must not be empty")
    finest = rer_by_level[min(rer_by_level)]
    coarsest = rer_by_level[max(rer_by_level)]
    if finest <= 0:
        raise EvaluationError("finest-level RER must be positive")
    return coarsest / finest


def run_depth_sweep(
    depths: Sequence[int] = (3, 5, 7, 9),
    epsilon_g: float = 0.999,
    delta: float = 1e-5,
    scale: str = "tiny",
    seed: int = 29,
    graph: Optional[BipartiteGraph] = None,
) -> List[Dict[str, Any]]:
    """Expected per-level RER and privilege gap as the hierarchy depth varies.

    Each depth rebuilds the hierarchy from scratch (fresh specialization seed
    derived from ``seed`` and the depth), then reports one row per released
    level plus a summary row carrying the privilege gap.
    """
    if graph is None:
        graph = load_dataset("dblp", scale, seed=seed)
    true_count = float(graph.num_associations())
    rows: List[Dict[str, Any]] = []
    for depth in depths:
        config = Figure1Config(num_levels=int(depth), scale=scale, seed=seed)
        hierarchy = build_figure1_hierarchy(graph, config, rng=seed + depth)
        levels = [level for level in range(0, depth - 1) if hierarchy.has_level(level)]
        sensitivities = level_sensitivities(graph, hierarchy, levels)
        rer_by_level: Dict[int, float] = {}
        for level in levels:
            mechanism = build_mechanism("gaussian", epsilon_g, sensitivities[level], delta=delta)
            rer_by_level[level] = mechanism.expected_absolute_error() / true_count
            rows.append(
                {
                    "kind": "level",
                    "depth": depth,
                    "level": level,
                    "epsilon_g": epsilon_g,
                    "expected_rer": rer_by_level[level],
                    "sensitivity": sensitivities[level],
                }
            )
        rows.append(
            {
                "kind": "summary",
                "depth": depth,
                "level": None,
                "epsilon_g": epsilon_g,
                "privilege_gap": privilege_gap(rer_by_level),
                "num_released_levels": len(levels),
            }
        )
    return rows


def run_delta_sweep(
    deltas: Sequence[float] = (1e-3, 1e-5, 1e-7, 1e-9),
    epsilon_g: float = 0.999,
    num_levels: int = 7,
    scale: str = "tiny",
    seed: int = 37,
    graph: Optional[BipartiteGraph] = None,
) -> List[Dict[str, Any]]:
    """Expected per-level RER as the Gaussian delta varies at fixed epsilon_g."""
    if graph is None:
        graph = load_dataset("dblp", scale, seed=seed)
    true_count = float(graph.num_associations())
    config = Figure1Config(num_levels=num_levels, scale=scale, seed=seed)
    hierarchy = build_figure1_hierarchy(graph, config, rng=seed)
    levels = [level for level in range(0, num_levels - 1) if hierarchy.has_level(level)]
    sensitivities = level_sensitivities(graph, hierarchy, levels)
    rows: List[Dict[str, Any]] = []
    for delta in deltas:
        for level in levels:
            mechanism = build_mechanism("gaussian", epsilon_g, sensitivities[level], delta=delta)
            rows.append(
                {
                    "delta": delta,
                    "level": level,
                    "epsilon_g": epsilon_g,
                    "expected_rer": mechanism.expected_absolute_error() / true_count,
                }
            )
    return rows
