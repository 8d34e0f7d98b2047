"""Sweep scheduling: bounding a sweep's workers by a slot budget.

A parameter sweep has one layer of parallelism: the executor fans
combinations out (one process per combination under ``--executor
process``), and each combination's disclosure runs in-process in that
worker.  :class:`WorkerBudget` checks the requested worker count against
the slots the host grants the run: the result is a deterministic
:class:`BudgetPlan` recorded in the sweep's snapshot, and a request that
does not fit raises a clear :class:`~repro.exceptions.ValidationError`
instead of oversubscribing the host.

:class:`SweepScheduler` bundles the negotiated plan with executor
lifecycle: :meth:`SweepScheduler.scope` yields the executor sized to the
plan, and :attr:`SweepScheduler.plan` is what
:meth:`~repro.evaluation.sweep.ParameterSweep.run` stamps into the
:class:`~repro.evaluation.snapshot.SweepSnapshot`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.exceptions import ValidationError
from repro.execution.executors import (
    Executor,
    ExecutorSpec,
    default_max_workers,
    executor_name,
    executor_scope,
)

@dataclass(frozen=True)
class BudgetPlan:
    """The negotiated worker count, recorded verbatim in the snapshot.

    ``outer_workers <= total`` always holds — the plan is only ever built by
    :meth:`WorkerBudget.plan`, which rejects anything else.
    """

    executor: str
    total: int
    outer_workers: int

    def to_dict(self) -> dict:
        return {
            "executor": self.executor,
            "total": self.total,
            "outer_workers": self.outer_workers,
        }


class WorkerBudget:
    """A fixed pool of worker slots a sweep's executor must fit in.

    Parameters
    ----------
    total:
        Total concurrently-runnable workers the host grants this run
        (default: the CPU count).
    """

    def __init__(self, total: Optional[int] = None):
        if total is None:
            total = default_max_workers()
        self.total = int(total)
        if self.total < 1:
            raise ValidationError(f"worker budget must be >= 1, got {total}")

    @classmethod
    def resolve(cls, budget: Union[None, int, "WorkerBudget"]) -> "WorkerBudget":
        """Accept a budget, a slot count, or ``None`` (CPU count)."""
        if isinstance(budget, WorkerBudget):
            return budget
        return cls(budget)

    def plan(
        self,
        executor: ExecutorSpec = None,
        outer_workers: Optional[int] = None,
    ) -> BudgetPlan:
        """Negotiate a deterministic worker count under this budget.

        Parameters
        ----------
        executor:
            The executor spec (name, ``None`` for serial, or a live
            :class:`Executor` whose ``max_workers`` then counts as the
            requested width).
        outer_workers:
            Requested worker count (``--workers``).  ``None`` defaults to 1
            for the serial executor and to the full budget for pool
            executors.

        Raises
        ------
        ValidationError
            When ``outer_workers`` exceeds the budget.
        """
        name = executor_name(executor)
        if name == "serial":
            if outer_workers is not None and int(outer_workers) != 1:
                raise ValidationError(
                    f"executor 'serial' runs one combination at a time; "
                    f"--workers {outer_workers} requires --executor thread or process"
                )
            outer = 1
        elif outer_workers is not None:
            outer = int(outer_workers)
        elif isinstance(executor, Executor):
            outer = int(executor.max_workers)
        else:
            outer = self.total
        if outer < 1:
            raise ValidationError(f"--workers must be >= 1, got {outer_workers}")
        if outer > self.total:
            raise ValidationError(
                f"--workers {outer} exceeds the worker budget of {self.total} slot(s); "
                f"lower --workers or raise --worker-budget"
            )
        return BudgetPlan(executor=name, total=self.total, outer_workers=outer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerBudget(total={self.total})"


class SweepScheduler:
    """A negotiated plan plus the executor lifecycle that honours it.

    Parameters
    ----------
    executor:
        Executor spec — a name, ``None``, or a live instance (chaos tests
        pass a :class:`~repro.execution.faults.FaultInjectingExecutor`
        here).
    workers:
        Requested worker count (validated against the budget).
    budget:
        Total slots (:class:`WorkerBudget`, an int, or ``None`` for the
        CPU count).
    task_timeout:
        Per-combination wall-clock bound handed to the executor.
    """

    def __init__(
        self,
        executor: ExecutorSpec = None,
        workers: Optional[int] = None,
        budget: Union[None, int, WorkerBudget] = None,
        task_timeout: Optional[float] = None,
    ):
        self.budget = WorkerBudget.resolve(budget)
        self.plan = self.budget.plan(executor=executor, outer_workers=workers)
        self.task_timeout = task_timeout
        self._spec = executor

    @contextmanager
    def scope(self) -> Iterator[Executor]:
        """Yield the executor sized to the plan (closing what it opens)."""
        with executor_scope(
            self._spec,
            max_workers=self.plan.outer_workers,
            task_timeout=self.task_timeout,
        ) as pool:
            yield pool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepScheduler({self.plan!r})"
