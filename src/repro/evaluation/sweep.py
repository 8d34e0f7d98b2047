"""Generic parameter-sweep runner used by the benchmark harnesses.

Sweeps can be **checkpointed**: pass ``journal=`` to :meth:`ParameterSweep.run`
and every combination's state (``PENDING → RUNNING → DONE | FAILED``, with
the result row or error detail) is appended to the run's one event log,
``<journal>.events.jsonl``, under a
:class:`~repro.evaluation.journal.RunJournal` header that names the run.
An interrupted or partially-failed sweep re-run with the same journal
resumes from the logged rows instead of restarting — completed
combinations are never executed (and, when the runner discloses, never
re-disclosed) again.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Union

from repro.evaluation.journal import (
    PathLike,
    RunJournal,
    check_error_policy,
    checkpointed_map,
    open_run,
)
from repro.evaluation.snapshot import SweepSnapshot
from repro.exceptions import EvaluationError
from repro.execution import SweepScheduler


def combination_key(params: Mapping[str, Any]) -> str:
    """Stable journal key for one grid combination."""
    return json.dumps(params, sort_keys=True, default=str)


def _run_combination(
    params: Dict[str, Any],
    runner: Callable[..., Mapping[str, Any]],
    record_time: bool,
) -> Dict[str, Any]:
    """Run one grid combination (executor task; module-level so it pickles).

    Timing happens inside the task, so ``elapsed_seconds`` reflects the
    runner itself rather than queueing delays in a parallel run.
    """
    start = time.perf_counter()
    output = runner(**params)
    elapsed = time.perf_counter() - start
    if not isinstance(output, Mapping):
        raise EvaluationError(
            f"runner must return a mapping of result columns, got {type(output).__name__}"
        )
    row = dict(params)
    row.update(output)
    if record_time:
        row["elapsed_seconds"] = elapsed
    return row


@dataclass
class SweepResult:
    """All rows produced by a :class:`ParameterSweep` run.

    ``errors`` is non-empty only for ``on_error="collect_errors"`` runs: one
    entry per failed combination (key, exception type, message, traceback),
    with the corresponding row absent from ``rows``.
    """

    name: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[Dict[str, Any]] = field(default_factory=list)
    #: The run's reduced :class:`~repro.evaluation.snapshot.SweepSnapshot`;
    #: ``None`` only for an unjournaled, unobserved ``fail_fast`` run.
    snapshot: Optional[Any] = None

    def column(self, key: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(key) for row in self.rows]

    def filter(self, **criteria) -> "SweepResult":
        """Rows whose values match every keyword criterion."""
        rows = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]
        return SweepResult(name=self.name, rows=rows)

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"name": self.name, "rows": list(self.rows), "errors": list(self.errors)}

    def __len__(self) -> int:
        return len(self.rows)


class ParameterSweep:
    """Run a callable over the Cartesian product of a parameter grid.

    Parameters
    ----------
    runner:
        Callable invoked as ``runner(**params)``; must return a mapping of
        result columns (merged with the parameter columns into one row).
    grid:
        Mapping ``parameter name -> iterable of values``.
    name:
        Label stored on the result.

    Examples
    --------
    >>> sweep = ParameterSweep(lambda x, y: {"sum": x + y}, {"x": [1, 2], "y": [10]})
    >>> len(sweep.run().rows)
    2
    """

    def __init__(
        self,
        runner: Callable[..., Mapping[str, Any]],
        grid: Mapping[str, Iterable[Any]],
        name: str = "sweep",
    ):
        if not callable(runner):
            raise EvaluationError("runner must be callable")
        if not grid:
            raise EvaluationError("grid must contain at least one parameter")
        self.runner = runner
        self.grid = {key: list(values) for key, values in grid.items()}
        for key, values in self.grid.items():
            if not values:
                raise EvaluationError(f"parameter {key!r} has no values")
        self.name = str(name)

    def combinations(self) -> List[Dict[str, Any]]:
        """All parameter combinations, in deterministic order."""
        keys = list(self.grid)
        return [dict(zip(keys, combo)) for combo in itertools.product(*(self.grid[k] for k in keys))]

    def fingerprint(self) -> str:
        """Identifies this sweep's configuration for journal compatibility."""
        payload = json.dumps({"name": self.name, "grid": self.grid}, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def run(
        self,
        record_time: bool = False,
        journal: Union[None, PathLike, RunJournal] = None,
        on_error: str = "fail_fast",
        scheduler: Optional[SweepScheduler] = None,
        snapshot: Union[None, PathLike, SweepSnapshot] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> SweepResult:
        """Execute the runner for every combination and collect rows.

        Combinations are independent, so they fan out through the
        executor of ``scheduler`` (a
        :class:`~repro.execution.scheduler.SweepScheduler`; ``None`` means
        a serial ``SweepScheduler()``).  The scheduler's plan — executor,
        worker budget and worker count — is stamped into the snapshot, and
        its ``task_timeout`` bounds each combination's wall-clock seconds
        on the pool executors.  Rows always come back in deterministic
        combination order; with a process executor the runner must be a
        picklable module-level callable and should derive any random state
        from its own parameters.

        Fault tolerance
        ---------------
        ``journal`` (a path or an open
        :class:`~repro.evaluation.journal.RunJournal`) records every
        combination's state, and its result row, in the event log
        ``<journal>.events.jsonl``; a re-run with the same journal resumes
        from the logged rows instead of restarting.
        ``on_error`` selects the failure policy: ``"fail_fast"`` (default)
        stops at the first failed combination — raising the runner's own
        exception when unjournaled, or a checkpointing
        :class:`~repro.exceptions.SweepInterrupted` when journaled — while
        ``"collect_errors"`` records failures (see ``SweepResult.errors``)
        and keeps going.

        Observation
        -----------
        ``snapshot`` (a :class:`~repro.evaluation.snapshot.SweepSnapshot`
        or a stream-file path) and/or ``progress`` (a callable receiving one
        canonical ``sweep-progress`` JSON line per wave) turn the run into a
        monitored job; the reduced snapshot comes back on
        ``SweepResult.snapshot``.  With a journal, ``snapshot`` must be
        ``None`` or the journal's own ``<journal>.events.jsonl``: one run
        keeps one log.
        """
        check_error_policy(on_error)
        if scheduler is None:
            scheduler = SweepScheduler()
        task = partial(_run_combination, runner=self.runner, record_time=record_time)
        combinations = self.combinations()
        if journal is None and snapshot is None and progress is None and on_error == "fail_fast":
            # The historical path: the first failure propagates unwrapped.
            with scheduler.scope() as pool:
                rows = pool.map(task, combinations, timeout=scheduler.task_timeout)
            return SweepResult(name=self.name, rows=rows)
        recorder, resume = open_run(
            journal,
            snapshot,
            progress,
            fingerprint=self.fingerprint(),
            name=self.name,
            total=len(combinations),
            plan=scheduler.plan,
        )
        keys = [combination_key(params) for params in combinations]
        with scheduler.scope() as pool:
            rows, errors = checkpointed_map(
                pool, task, combinations, keys, recorder, resume, on_error, scheduler.task_timeout
            )
        return SweepResult(
            name=self.name,
            rows=[row for row in rows if row is not None],
            errors=errors,
            snapshot=recorder.snapshot,
        )
