"""Execution backends: where the evaluation harnesses' independent work runs.

The evaluation harnesses express parallelisable work (per-trial Figure-1
Monte-Carlo runs, per-combination sweep rows, per-size scalability
measurements) as pure functions mapped over task payloads; a single
disclosure always runs in-process inside one task.  The classes here decide
whether that map runs serially, on a thread pool, or across processes — with
bit-identical results in all three cases (see
:mod:`repro.execution.executors` for the determinism contract).

A parameter sweep takes its executor from one place: a
:class:`SweepScheduler` (``ParameterSweep.run(scheduler=...)``), which
checks the requested worker count against the host's slot budget and
records the resulting plan in the sweep's snapshot.

Fault tolerance lives alongside: :mod:`repro.execution.retry` retries
transient task failures with deterministic backoff, the pool executors
enforce per-task timeouts and rebuild broken process pools, and
:mod:`repro.execution.faults` injects scripted failures to prove that a
disturbed run is bit-identical to an undisturbed one.  (``faults`` is not
re-exported here — it imports the store layer, which the executors do not
need.)
"""

from repro.execution.executors import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorSpec,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    check_executor_name,
    default_max_workers,
    executor_name,
    executor_scope,
    make_executor,
)
from repro.execution.retry import (
    DEFAULT_RETRYABLE,
    RetryPolicy,
    RetryingTask,
    map_with_retries,
)
from repro.execution.scheduler import SweepScheduler

__all__ = [
    "EXECUTOR_NAMES",
    "DEFAULT_RETRYABLE",
    "Executor",
    "ExecutorSpec",
    "SerialExecutor",
    "SweepScheduler",
    "ThreadExecutor",
    "ProcessExecutor",
    "RetryPolicy",
    "RetryingTask",
    "check_executor_name",
    "default_max_workers",
    "executor_name",
    "executor_scope",
    "make_executor",
    "map_with_retries",
]
