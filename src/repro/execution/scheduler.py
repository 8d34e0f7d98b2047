"""Sweep scheduling: bounding a sweep's workers by a slot budget.

A parameter sweep has one layer of parallelism: the executor fans
combinations out (one process per combination under ``--executor
process``), and each combination's disclosure runs in-process in that
worker.  :class:`SweepScheduler` checks the requested worker count against
the slots the host grants the run: the result is a deterministic
:attr:`~SweepScheduler.plan` that
:meth:`~repro.evaluation.sweep.ParameterSweep.run` records in the sweep's
:class:`~repro.evaluation.snapshot.SweepSnapshot`, and a request that does
not fit raises a clear :class:`~repro.exceptions.ValidationError` instead
of oversubscribing the host.  :meth:`SweepScheduler.scope` yields the
executor sized to the plan.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.exceptions import ValidationError
from repro.execution.executors import (
    Executor,
    ExecutorSpec,
    default_max_workers,
    executor_name,
    executor_scope,
)


class SweepScheduler:
    """A sweep's worker count, checked against a slot budget, and its executor.

    Parameters
    ----------
    executor:
        Executor spec — a name, ``None`` for serial, or a live instance
        whose ``max_workers`` then counts as the requested width (chaos
        tests pass a :class:`~repro.execution.faults.FaultInjectingExecutor`
        here).
    workers:
        Requested worker count (``--workers``).  ``None`` defaults to 1 for
        the serial executor and to the whole budget for pool executors.
    budget:
        Total concurrently-runnable workers the host grants this run
        (``None``: the CPU count).
    task_timeout:
        Per-combination wall-clock bound handed to the executor.

    Raises
    ------
    ValidationError
        When the budget is below 1, a serial executor is asked for more than
        one worker, or ``workers`` exceeds the budget.
    """

    def __init__(
        self,
        executor: ExecutorSpec = None,
        workers: Optional[int] = None,
        budget: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ):
        total = int(default_max_workers() if budget is None else budget)
        if total < 1:
            raise ValidationError(f"worker budget must be >= 1, got {budget}")
        name = executor_name(executor)
        if name == "serial":
            if workers is not None and int(workers) != 1:
                raise ValidationError(
                    f"executor 'serial' runs one combination at a time; "
                    f"--workers {workers} requires --executor thread or process"
                )
            outer = 1
        elif workers is not None:
            outer = int(workers)
        elif isinstance(executor, Executor):
            outer = int(executor.max_workers)
        else:
            outer = total
        if outer < 1:
            raise ValidationError(f"--workers must be >= 1, got {workers}")
        if outer > total:
            raise ValidationError(
                f"--workers {outer} exceeds the worker budget of {total} slot(s); "
                f"lower --workers or raise --worker-budget"
            )
        #: The negotiated plan, recorded verbatim in the sweep's snapshot.
        self.plan = {"executor": name, "total": total, "outer_workers": outer}
        self.task_timeout = task_timeout
        self._spec = executor

    @contextmanager
    def scope(self) -> Iterator[Executor]:
        """Yield the executor sized to the plan (closing what it opens)."""
        with executor_scope(
            self._spec,
            max_workers=self.plan["outer_workers"],
            task_timeout=self.task_timeout,
        ) as pool:
            yield pool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepScheduler({self.plan!r})"
