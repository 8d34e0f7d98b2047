"""Sweep-orchestration benchmark: combinations/sec per executor + overhead.

Two sections, both sweeping a fixed ``epsilon_g`` grid of small disclosures:

* **executors** — the same :class:`~repro.evaluation.sweep.ParameterSweep`
  run through the ``serial`` and ``process`` executors (the pool at
  :data:`POOL_WORKERS` wide), reporting wall time and
  **combinations/sec** for each.  The rows are asserted identical across
  executors — the determinism contract the parity suite proves per-release
  holds for whole sweeps too.
* **scheduler overhead** — the serial sweep run bare vs run with a live
  :class:`~repro.evaluation.snapshot.SweepSnapshot` and a progress callback
  (both through a serial :class:`~repro.execution.SweepScheduler`).
  The difference is the full observability tax (task events, snapshot
  reduction, progress serialisation), reported in
  milliseconds and as a fraction and asserted < 30% — observation must stay
  cheap relative to disclosure work.

Results go to ``benchmarks/results/sweep.json`` / ``sweep.txt``.  Only
ratios and sanity are asserted — absolute numbers are hardware-bound.
"""

from __future__ import annotations

import json
import time
from typing import Dict

import pytest

from benchmarks.conftest import BENCH_SEED, save_text
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.datasets.dblp_like import generate_dblp_like
from repro.evaluation.sweep import ParameterSweep
from repro.execution import SweepScheduler
from repro.grouping.specialization import SpecializationConfig
from repro.utils.serialization import to_json_file

#: Grid width of the benchmarked sweep.
NUM_COMBINATIONS = 16

#: Authors in each combination's synthetic graph (small on purpose: the
#: benchmark measures orchestration, not disclosure throughput).
NUM_AUTHORS = 120

#: Hierarchy depth of each combination's disclosure.
NUM_LEVELS = 3

#: Width of the process pool (passed as the worker budget too, so
#: the benchmark runs identically on single-core CI runners).
POOL_WORKERS = 4

#: Upper bound on the scheduler+snapshot observability tax.
MAX_OVERHEAD_FRACTION = 0.30

EPSILONS = [round(0.1 * (i + 1), 1) for i in range(NUM_COMBINATIONS)]


def _disclose_combo(epsilon_g):
    graph = generate_dblp_like(num_authors=NUM_AUTHORS, seed=BENCH_SEED % 997)
    config = DisclosureConfig(
        epsilon_g=epsilon_g,
        specialization=SpecializationConfig(num_levels=NUM_LEVELS),
    )
    release = MultiLevelDiscloser(config=config, rng=7).disclose(graph)
    return {"num_levels": len(release.levels())}


def _timed_sweep(**run_kwargs):
    sweep = ParameterSweep(_disclose_combo, {"epsilon_g": EPSILONS}, name="bench-sweep")
    start = time.perf_counter()
    result = sweep.run(**run_kwargs)
    elapsed = time.perf_counter() - start
    assert len(result.rows) == NUM_COMBINATIONS
    return elapsed, result


def _bench_executors() -> Dict[str, object]:
    section: Dict[str, object] = {}
    baseline_rows = None
    for spec in ("serial", "process"):
        workers = 1 if spec == "serial" else POOL_WORKERS
        scheduler = SweepScheduler(executor=spec, workers=workers, budget=POOL_WORKERS)
        elapsed, result = _timed_sweep(
            scheduler=scheduler, snapshot=None, progress=lambda line: None
        )
        if baseline_rows is None:
            baseline_rows = result.rows
        else:
            # Parity: every executor produces the same rows, bit for bit.
            assert result.rows == baseline_rows, spec
        assert result.snapshot is not None and result.snapshot.is_converged()
        section[spec] = {
            "workers": workers,
            "wall_s": round(elapsed, 3),
            "combinations_per_sec": round(NUM_COMBINATIONS / elapsed, 2),
            "plan": result.snapshot.plan,
        }
    return section


def _bench_scheduler_overhead() -> Dict[str, object]:
    bare_s, _ = _timed_sweep()
    observed_s, result = _timed_sweep(
        scheduler=SweepScheduler(executor="serial", budget=POOL_WORKERS),
        snapshot=None,
        progress=lambda line: None,
    )
    assert result.snapshot.counts()["DONE"] == NUM_COMBINATIONS
    overhead_s = max(0.0, observed_s - bare_s)
    overhead_fraction = overhead_s / bare_s if bare_s > 0 else 0.0
    assert overhead_fraction < MAX_OVERHEAD_FRACTION, (
        f"scheduler+snapshot overhead is {overhead_fraction:.1%} of the bare "
        f"sweep ({observed_s:.3f}s vs {bare_s:.3f}s)"
    )
    return {
        "bare_wall_s": round(bare_s, 3),
        "observed_wall_s": round(observed_s, 3),
        "overhead_ms": round(overhead_s * 1e3, 3),
        "overhead_fraction": round(overhead_fraction, 4),
    }


@pytest.mark.slow
def test_bench_sweep(results_dir):
    results: Dict[str, object] = {
        "seed": BENCH_SEED,
        "combinations": NUM_COMBINATIONS,
        "authors_per_combination": NUM_AUTHORS,
        "levels": NUM_LEVELS,
        "executors": _bench_executors(),
        "scheduler_overhead": _bench_scheduler_overhead(),
    }

    to_json_file(results, results_dir / "sweep.json")
    lines = [
        f"sweep orchestration benchmark ({NUM_COMBINATIONS} combinations, seed={BENCH_SEED})",
        json.dumps(results, indent=2, sort_keys=True),
    ]
    save_text(results_dir / "sweep.txt", "\n".join(lines))
