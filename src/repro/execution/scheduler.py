"""Sweep scheduling: worker-budget negotiation for nested executors.

A parameter sweep stacks two layers of parallelism: the *outer* executor
fans combinations out (one process per combination under ``--executor
process``) while each combination's disclosure can fan its per-level
perturbation out over *inner* threads.  Without
coordination the two layers silently oversubscribe the host — ``8`` outer
processes each starting ``8`` inner threads is 64 runnable workers on an
8-core box.  :class:`WorkerBudget` negotiates the split: outer workers
times inner workers must fit the total slot budget, the result is a
deterministic :class:`BudgetPlan` recorded in the sweep's snapshot, and a
conflicting request raises a clear
:class:`~repro.exceptions.ValidationError` instead of thrashing.

:class:`SweepScheduler` bundles the negotiated plan with executor
lifecycle: :meth:`SweepScheduler.scope` yields the outer executor sized to
the plan, and :attr:`SweepScheduler.plan` is what
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

#: ``inner_workers`` spelling that asks the budget to hand every leftover
#: slot to the nested per-level perturbation threads.
AUTO_INNER = "auto"


@dataclass(frozen=True)
class BudgetPlan:
    """The negotiated worker split, recorded verbatim in the snapshot.

    ``outer_workers * inner_workers <= total`` always holds — the plan is
    only ever built by :meth:`WorkerBudget.plan`, which rejects anything
    else.
    """

    executor: str
    total: int
    outer_workers: int
    inner_workers: int

    def to_dict(self) -> dict:
        return {
            "executor": self.executor,
            "total": self.total,
            "outer_workers": self.outer_workers,
            "inner_workers": self.inner_workers,
        }


class WorkerBudget:
    """A fixed pool of worker slots shared by nested executors.

    Parameters
    ----------
    total:
        Total concurrently-runnable workers the host grants this run
        (default: the CPU count).  The outer combination executor and the
        per-combination inner threads negotiate their split out of this one
        number.
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
        inner_workers: Union[None, int, str] = None,
    ) -> BudgetPlan:
        """Negotiate a deterministic outer x inner split under this budget.

        Parameters
        ----------
        executor:
            The outer executor spec (name, ``None`` for serial, or a live
            :class:`Executor` whose ``max_workers`` then counts as the
            requested outer width).
        outer_workers:
            Requested outer worker count (``--workers``).  ``None`` defaults
            to 1 for the serial executor and to the full budget for pool
            executors.
        inner_workers:
            Per-combination nested thread count.  ``None`` keeps the nested
            perturbation serial (1), :data:`AUTO_INNER` hands every leftover
            slot to the inner layer (``total // outer``), and an explicit
            count is validated against the budget.

        Raises
        ------
        ValidationError
            When ``outer_workers`` alone exceeds the budget, or the nested
            product ``outer * inner`` oversubscribes it.
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
        if inner_workers is None:
            inner = 1
        elif inner_workers == AUTO_INNER:
            inner = max(1, self.total // outer)
        else:
            inner = int(inner_workers)
        if inner < 1:
            raise ValidationError(f"inner workers must be >= 1, got {inner_workers}")
        if outer * inner > self.total:
            raise ValidationError(
                f"nested executors oversubscribe the worker budget: {outer} outer "
                f"worker(s) x {inner} inner thread(s) = {outer * inner} slots, but the "
                f"budget is {self.total}; lower --workers/--inner-workers or raise "
                f"--worker-budget"
            )
        return BudgetPlan(
            executor=name, total=self.total, outer_workers=outer, inner_workers=inner
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerBudget(total={self.total})"


class SweepScheduler:
    """A negotiated plan plus the executor lifecycle that honours it.

    Parameters
    ----------
    executor:
        Outer executor spec — a name, ``None``, or a live instance (chaos
        tests pass a
        :class:`~repro.execution.faults.FaultInjectingExecutor` here).
    workers:
        Requested outer worker count (validated against the budget).
    inner_workers:
        Nested per-combination thread count (``None``, a count, or
        :data:`AUTO_INNER`).
    budget:
        Total slots (:class:`WorkerBudget`, an int, or ``None`` for the
        CPU count).
    task_timeout:
        Per-combination wall-clock bound handed to the outer executor.
    """

    def __init__(
        self,
        executor: ExecutorSpec = None,
        workers: Optional[int] = None,
        inner_workers: Union[None, int, str] = None,
        budget: Union[None, int, WorkerBudget] = None,
        task_timeout: Optional[float] = None,
    ):
        self.budget = WorkerBudget.resolve(budget)
        self.plan = self.budget.plan(
            executor=executor, outer_workers=workers, inner_workers=inner_workers
        )
        self.task_timeout = task_timeout
        self._spec = executor

    @contextmanager
    def scope(self) -> Iterator[Executor]:
        """Yield the outer executor sized to the plan (closing what it opens)."""
        with executor_scope(
            self._spec,
            max_workers=self.plan.outer_workers,
            task_timeout=self.task_timeout,
        ) as pool:
            yield pool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepScheduler({self.plan!r})"
