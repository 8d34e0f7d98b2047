"""Scalability measurements (experiment E3).

The paper claims the technique is "effective, scalable"; this harness times
the two pipeline phases (specialization and noise injection) on synthetic
graphs of increasing size and reports the wall-clock seconds and the realised
association counts, so the benchmark can verify near-linear scaling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.datasets.dblp_like import generate_dblp_like
from repro.exceptions import EvaluationError
from repro.execution import ExecutorSpec, executor_scope
from repro.grouping.specialization import SpecializationConfig
from repro.utils.rng import RandomState, derive_seedseq


@dataclass
class ScalabilityResult:
    """Rows of the scalability experiment."""

    rows: List[Dict[str, float]] = field(default_factory=list)

    def sizes(self) -> List[int]:
        """Association counts of the measured graphs."""
        return [int(row["num_associations"]) for row in self.rows]

    def total_seconds(self) -> List[float]:
        """End-to-end pipeline seconds per graph."""
        return [row["total_seconds"] for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"rows": list(self.rows)}

    def format_table(self) -> str:
        """Aligned text table."""
        header = f"{'authors':>10} {'papers':>10} {'assoc':>12} {'spec_s':>9} {'noise_s':>9} {'total_s':>9}"
        lines = [header]
        for row in self.rows:
            lines.append(
                f"{int(row['num_authors']):>10} {int(row['num_papers']):>10} "
                f"{int(row['num_associations']):>12} {row['specialization_seconds']:>9.3f} "
                f"{row['noise_seconds']:>9.3f} {row['total_seconds']:>9.3f}"
            )
        return "\n".join(lines)


def _measure_size(
    task: Tuple[int, int, Optional[np.random.SeedSequence]],
    num_levels: int,
    epsilon_g: float,
) -> Dict[str, float]:
    """Time one graph size end to end (executor task; self-contained).

    Each size generates its own graph — from its own derived seed material,
    per the execution layer's contract that tasks never share a mutable
    generator — and times its own phases locally, so rows are meaningful
    whether the sizes run serially or on separate workers (wall-clock
    numbers from concurrent runs share the machine, of course — benchmarks
    that compare absolute timings keep the serial default).
    """
    index, num_authors, graph_seed = task
    graph = generate_dblp_like(num_authors=int(num_authors), seed=graph_seed)
    config = DisclosureConfig(
        epsilon_g=epsilon_g,
        specialization=SpecializationConfig(num_levels=num_levels),
    )
    discloser = MultiLevelDiscloser(config=config, rng=index)

    start = time.perf_counter()
    hierarchy = discloser.specializer.build(graph).hierarchy
    spec_seconds = time.perf_counter() - start

    start = time.perf_counter()
    discloser.disclose(graph, hierarchy=hierarchy)
    noise_seconds = time.perf_counter() - start

    return {
        "num_authors": float(graph.num_left()),
        "num_papers": float(graph.num_right()),
        "num_associations": float(graph.num_associations()),
        "specialization_seconds": spec_seconds,
        "noise_seconds": noise_seconds,
        "total_seconds": spec_seconds + noise_seconds,
    }


def run_scalability(
    author_counts: Sequence[int] = (500, 1_000, 2_000, 4_000),
    num_levels: int = 6,
    epsilon_g: float = 0.5,
    seed: RandomState = 3,
    executor: ExecutorSpec = None,
) -> ScalabilityResult:
    """Time the full pipeline on DBLP-like graphs of increasing size.

    Parameters
    ----------
    author_counts:
        Left-node counts of the generated graphs (papers and associations
        scale with the DBLP ratios).
    num_levels:
        Hierarchy depth used for every run (kept moderate so the individual
        level does not dominate the timing at small scales).
    epsilon_g:
        Per-level budget of the phase-2 noise.
    seed:
        Base seed; each size derives its own stream.
    executor:
        Fan the independent sizes out through an executor (default serial —
        the right choice when absolute timings matter).
    """
    if not author_counts:
        raise EvaluationError("author_counts must not be empty")
    # Derive per-size seed material up front (in the caller, so a Generator
    # parent is only ever advanced here): tasks must carry their own seeds,
    # never a shared generator, for serial/thread/process runs to agree.
    tasks = [
        (
            index,
            count,
            derive_seedseq(seed, f"scalability-size-{index}") if seed is not None else None,
        )
        for index, count in enumerate(author_counts)
    ]
    task = partial(_measure_size, num_levels=num_levels, epsilon_g=epsilon_g)
    with executor_scope(executor) as pool:
        return ScalabilityResult(rows=pool.map(task, tasks))
