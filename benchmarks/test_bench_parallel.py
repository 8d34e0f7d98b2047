"""Serial vs parallel wall-time of the per-trial Figure-1 Monte-Carlo.

The 25-trial Figure-1 run re-executes the full pipeline (specialization,
sensitivity calibration, noise injection) once per trial; trials are
completely independent and carry their own derived random streams, so they
fan out through the :class:`~repro.execution.ProcessExecutor` with
bit-identical results.  This benchmark times the same run under the serial
and process executors and records both wall times plus the speedup in
``benchmarks/results/parallel.json``.

The ≥ 2x speedup assertion is gated on the machine actually having spare
cores: on a single-core container a process pool can only add overhead, so
there the benchmark still records the measured (honest) numbers and skips
the assertion.  Parity of the results themselves is asserted everywhere —
and again, against tier-1's seed-level locks, in
``tests/test_engine_parity.py``.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, save_text
from repro.evaluation.figure1 import Figure1Config, run_figure1_trials
from repro.execution import default_max_workers
from repro.utils.serialization import to_json_file

#: Trial count of the paper's Figure-1 sweep.
NUM_TRIALS = 25

#: Hierarchy depth for the benchmark runs.
NUM_LEVELS = 9

#: Cores needed before a >= 2x process speedup is a reasonable expectation.
MIN_CORES_FOR_SPEEDUP = 4


def _timed_run(executor: str) -> Dict:
    config = Figure1Config(
        num_levels=NUM_LEVELS,
        num_trials=NUM_TRIALS,
        scale=BENCH_SCALE,
        seed=BENCH_SEED,
    )
    start = time.perf_counter()
    result = run_figure1_trials(config=config, executor=executor)
    return {"seconds": time.perf_counter() - start, "result": result}


@pytest.mark.slow
def test_bench_parallel_figure1_trials(results_dir):
    """Wall-clock of the 25-trial Figure-1 run: serial vs process executor."""
    serial = _timed_run("serial")
    process = _timed_run("process")

    # Parity first: parallel execution must not change the science.
    assert process["result"].to_dict()["series"] == serial["result"].to_dict()["series"]

    speedup = serial["seconds"] / max(process["seconds"], 1e-9)
    workers = default_max_workers()
    record = {
        "benchmark": "figure1-per-trial-monte-carlo",
        "scale": BENCH_SCALE,
        "num_trials": NUM_TRIALS,
        "num_levels": NUM_LEVELS,
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count(),
        "max_workers": workers,
        "serial_seconds": serial["seconds"],
        "process_seconds": process["seconds"],
        "speedup": speedup,
        "results_identical": True,
    }
    to_json_file(record, results_dir / "parallel.json")
    save_text(
        results_dir / "parallel.txt",
        "\n".join(
            [
                f"figure1 per-trial Monte-Carlo ({NUM_TRIALS} trials, scale={BENCH_SCALE})",
                f"workers\t{workers}",
                f"serial\t{serial['seconds']:.3f}s",
                f"process\t{process['seconds']:.3f}s",
                f"speedup\t{speedup:.2f}x",
            ]
        ),
    )
    print(f"\nserial {serial['seconds']:.3f}s | process {process['seconds']:.3f}s "
          f"| speedup {speedup:.2f}x on {workers} workers")

    if workers < MIN_CORES_FOR_SPEEDUP:
        pytest.skip(
            f"only {workers} worker(s) available; speedup recorded "
            f"({speedup:.2f}x) but the >= 2x assertion needs "
            f">= {MIN_CORES_FOR_SPEEDUP} cores"
        )
    assert speedup >= 2.0, (
        f"expected >= 2x speedup from the process executor on {workers} workers, "
        f"measured {speedup:.2f}x"
    )
