"""Scalability measurements (experiment E3).

The paper claims the technique is "effective, scalable"; this harness times
the two pipeline phases (specialization and noise injection) on synthetic
graphs of increasing size and reports the wall-clock seconds and the realised
association counts, so the benchmark can verify near-linear scaling.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.release import MultiLevelRelease
from repro.core.store import ReleaseStore
from repro.datasets.dblp_like import generate_dblp_like
from repro.evaluation.journal import (
    PathLike,
    RunJournal,
    check_error_policy,
    checkpointed_map,
    open_run,
)
from repro.evaluation.snapshot import SweepSnapshot
from repro.exceptions import EvaluationError
from repro.execution import ExecutorSpec, executor_scope
from repro.grouping.specialization import SpecializationConfig
from repro.utils.rng import RandomState, derive_seedseq


@dataclass
class ScalabilityResult:
    """Rows of the scalability experiment.

    ``errors`` is populated only by ``on_error="collect_errors"`` runs: one
    error-detail entry per failed size, whose row is then absent.
    """

    rows: List[Dict[str, float]] = field(default_factory=list)
    errors: List[Dict[str, Any]] = field(default_factory=list)

    def sizes(self) -> List[int]:
        """Association counts of the measured graphs."""
        return [int(row["num_associations"]) for row in self.rows]

    def total_seconds(self) -> List[float]:
        """End-to-end pipeline seconds per graph."""
        return [row["total_seconds"] for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"rows": list(self.rows), "errors": list(self.errors)}

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
) -> Tuple[Dict[str, float], MultiLevelRelease]:
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
    release = discloser.disclose(graph, hierarchy=hierarchy)
    noise_seconds = time.perf_counter() - start

    row = {
        "num_authors": float(graph.num_left()),
        "num_papers": float(graph.num_right()),
        "num_associations": float(graph.num_associations()),
        "specialization_seconds": spec_seconds,
        "noise_seconds": noise_seconds,
        "total_seconds": spec_seconds + noise_seconds,
    }
    return row, release


def scalability_key(
    num_levels: int, epsilon_g: float, seed: RandomState, num_authors: int
) -> str:
    """Store/journal key for one measured graph size."""
    # "vectorized" names the retired engine setting; it stays so that stored
    # keys and resumable journals from earlier versions remain valid.
    return f"scalability-vectorized-l{num_levels}-eps{epsilon_g}-seed{seed}-{int(num_authors)}"


def scalability_fingerprint(
    author_counts: Sequence[int],
    num_levels: int,
    epsilon_g: float,
    seed: RandomState,
) -> str:
    """Identifies one scalability configuration for journal compatibility."""
    payload = json.dumps(
        {
            "experiment": "scalability",
            "author_counts": [int(count) for count in author_counts],
            "num_levels": num_levels,
            "epsilon_g": epsilon_g,
            "seed": str(seed),
            # Kept (see scalability_key) so existing journals still resume.
            "engine": "vectorized",
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_scalability(
    author_counts: Sequence[int] = (500, 1_000, 2_000, 4_000),
    num_levels: int = 6,
    epsilon_g: float = 0.5,
    seed: RandomState = 3,
    executor: ExecutorSpec = None,
    store: Optional[ReleaseStore] = None,
    task_timeout: Optional[float] = None,
    journal: Union[None, PathLike, RunJournal] = None,
    on_error: str = "fail_fast",
    snapshot: Union[None, PathLike, "SweepSnapshot"] = None,
    progress: Optional[Any] = None,
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
    store:
        Optional :class:`~repro.core.store.ReleaseStore`; each size's
        release is persisted under :func:`scalability_key` so runs with
        different parameters keep distinct artefacts that can be inspected
        or served without re-running.
    task_timeout:
        Per-size wall-clock bound (pool executors only).
    journal:
        Record per-size state and rows in the event log of a
        :class:`~repro.evaluation.journal.RunJournal` (path or open
        journal); a re-run with the same journal resumes from the logged
        rows, re-measuring only unfinished sizes.  Each size's release is
        saved to ``store`` *before* its ``DONE`` event is recorded, so a
        resumed run pairs every recorded row with a persisted artefact
        (resume with the same store).
    on_error:
        ``"fail_fast"`` (default) or ``"collect_errors"`` — see
        :meth:`~repro.evaluation.sweep.ParameterSweep.run`.
    snapshot / progress:
        Observe the run through a
        :class:`~repro.evaluation.snapshot.SweepSnapshot` (instance or
        stream-file path) and/or per-wave ``sweep-progress`` lines — same
        contract as :meth:`~repro.evaluation.sweep.ParameterSweep.run`.
    """
    if not author_counts:
        raise EvaluationError("author_counts must not be empty")
    check_error_policy(on_error)
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
    keys = [scalability_key(num_levels, epsilon_g, seed, count) for count in author_counts]
    task = partial(_measure_size, num_levels=num_levels, epsilon_g=epsilon_g)

    def persist(key: str, item: Any, payload: Tuple[Dict[str, float], MultiLevelRelease]):
        row, release = payload
        if store is not None:
            store.save(release, key=key)
        return row

    recorder, resume = open_run(
        journal,
        snapshot,
        progress,
        fingerprint=scalability_fingerprint(author_counts, num_levels, epsilon_g, seed),
        name="scalability-vectorized",  # the key prefix, kept for the same reason
        total=len(tasks),
    )
    with executor_scope(executor) as pool:
        rows, errors = checkpointed_map(
            pool, task, tasks, keys, recorder, resume, on_error, task_timeout, persist
        )
    return ScalabilityResult(rows=[row for row in rows if row is not None], errors=errors)
