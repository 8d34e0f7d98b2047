"""Deterministic fault injection for chaos-testing the execution layer.

A :class:`FaultPlan` scripts failures by ``(task index, attempt number)`` —
the same plan always fails the same tasks at the same attempts, so a chaos
test is reproducible run to run.  Three fault kinds are provided:

* :class:`RaiseFault` — raise an exception (transient by default, so the
  retry layer absorbs it);
* :class:`DelayFault` — sleep before the task body runs (exercises
  timeouts);
* :class:`KillWorkerFault` — terminate the worker process with ``os._exit``
  (exercises the process executor's broken-pool recovery; only meaningful
  under a :class:`~repro.execution.executors.ProcessExecutor`).

:class:`FaultInjectingExecutor` wraps any executor and applies a plan (plus
an optional :class:`~repro.execution.retry.RetryPolicy`) to every ``map``;
:class:`FaultInjectingBackend` wraps any
:class:`~repro.core.store.StoreBackend` and fails or delays scripted calls.
Attempt counters are kept as marker files under a ``state_dir`` so they
survive worker death and are shared across processes.

Everything here exists to *prove* the fault-tolerance contract: a run with
injected crashes and transient errors must produce artefacts bit-identical
to the fault-free run under the same seed (``tests/test_chaos.py``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type

from repro.core.store import StoreBackend
from repro.exceptions import TransientError, ValidationError
from repro.execution.executors import Executor
from repro.execution.retry import RetryPolicy, map_with_retries


@dataclass(frozen=True)
class RaiseFault:
    """Raise ``exception`` on the listed attempt numbers (1-based)."""

    attempts: Tuple[int, ...] = (1,)
    exception: Type[BaseException] = TransientError
    message: str = "injected fault"

    def trigger(self, index: int, attempt: int) -> None:
        if attempt in self.attempts:
            raise self.exception(f"{self.message} (task {index}, attempt {attempt})")


@dataclass(frozen=True)
class DelayFault:
    """Sleep ``seconds`` before the task body on the listed attempts.

    An empty ``attempts`` tuple delays every attempt.
    """

    seconds: float = 0.05
    attempts: Tuple[int, ...] = ()

    def trigger(self, index: int, attempt: int) -> None:
        if not self.attempts or attempt in self.attempts:
            time.sleep(self.seconds)


@dataclass(frozen=True)
class KillWorkerFault:
    """Terminate the worker process on the listed attempts (1-based).

    Simulates a segfault / OOM kill: the process dies without cleanup, so a
    :class:`ProcessPoolExecutor` observes a broken pool.  The attempt marker
    is written *before* the kill, so the resubmitted task sees attempt 2 and
    proceeds — exactly one death per listed attempt.
    """

    attempts: Tuple[int, ...] = (1,)

    def trigger(self, index: int, attempt: int) -> None:
        if attempt in self.attempts:
            os._exit(17)


@dataclass(frozen=True)
class FaultPlan:
    """Faults per task index; tasks without an entry run clean."""

    faults: Mapping[int, Tuple[Any, ...]] = field(default_factory=dict)

    def for_task(self, index: int) -> Tuple[Any, ...]:
        return tuple(self.faults.get(index, ()))

    @classmethod
    def transient(cls, indices: Iterable[int], attempts: Tuple[int, ...] = (1,)) -> "FaultPlan":
        """A plan that raises a retryable fault for each listed task index."""
        return cls({index: (RaiseFault(attempts=attempts),) for index in indices})


class AttemptLedger:
    """Per-(map call, task) attempt counters persisted as marker files.

    File-based so counters survive worker death and are shared between the
    parent and every worker process; one file per attempt keeps the record
    append-only (no read-modify-write races between a dying worker and its
    replacement).
    """

    def __init__(self, state_dir: os.PathLike):
        self.state_dir = Path(state_dir)

    def record(self, scope: str, index: int) -> int:
        """Register one invocation of task ``index`` and return its attempt number."""
        directory = self.state_dir / scope
        directory.mkdir(parents=True, exist_ok=True)
        attempt = 1 + len(list(directory.glob(f"task-{index}.attempt-*")))
        (directory / f"task-{index}.attempt-{attempt}").touch()
        return attempt

    def attempts(self, scope: str, index: int) -> int:
        """How many times task ``index`` was invoked in ``scope``."""
        directory = self.state_dir / scope
        if not directory.is_dir():
            return 0
        return len(list(directory.glob(f"task-{index}.attempt-*")))


@dataclass
class FaultyFunction:
    """Picklable task wrapper that applies a fault plan before the task body.

    Receives ``(index, payload)`` pairs (the injecting executor enumerates
    its tasks), records the attempt in the ledger, triggers any scheduled
    faults for ``(index, attempt)``, then runs the real function on the
    payload.
    """

    fn: Callable[[Any], Any]
    plan: FaultPlan
    ledger: AttemptLedger
    scope: str

    def __call__(self, indexed_task: Tuple[int, Any]) -> Any:
        index, task = indexed_task
        attempt = self.ledger.record(self.scope, index)
        for fault in self.plan.for_task(index):
            fault.trigger(index, attempt)
        return self.fn(task)


class FaultInjectingExecutor(Executor):
    """Wrap any executor so every ``map`` runs under a fault plan.

    With a ``retry_policy``, tasks retry transient injected faults in-worker
    (via :func:`map_with_retries`); worker-death faults are recovered one
    layer down by the process executor's pool rebuild.  Pass an instance
    straight into ``run_figure1_trials(executor=...)`` or
    ``run_scalability(executor=...)``, or wrap it in
    ``SweepScheduler(executor=...)`` for ``ParameterSweep.run(scheduler=...)``,
    to chaos-test a full run.
    """

    def __init__(
        self,
        inner: Executor,
        plan: FaultPlan,
        state_dir: os.PathLike,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if not isinstance(inner, Executor):
            raise ValidationError(f"inner must be an Executor, got {type(inner).__name__}")
        self.inner = inner
        self.plan = plan
        self.ledger = AttemptLedger(state_dir)
        self.retry_policy = retry_policy
        self.name = f"chaos-{inner.name}"
        self.max_workers = inner.max_workers
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def on_retry(self):
        """Crash-recovery resubmission hook, delegated to the wrapped executor.

        Orchestration layers set ``pool.on_retry`` on whatever executor they
        were handed; delegating keeps a chaos-wrapped pool's injected worker
        deaths visible as ``RETRYING`` snapshot events, exactly like an
        unwrapped pool's.
        """
        return self.inner.on_retry

    @on_retry.setter
    def on_retry(self, callback) -> None:
        self.inner.on_retry = callback

    def map(
        self, fn: Callable[[Any], Any], tasks: Iterable[Any], timeout: Optional[float] = None
    ) -> List[Any]:
        tasks = list(tasks)
        with self._lock:
            self._calls += 1
            scope = f"map-{self._calls}"
        faulty = FaultyFunction(fn, self.plan, self.ledger, scope)
        indexed = list(enumerate(tasks))
        if self.retry_policy is None:
            return self.inner.map(faulty, indexed, timeout=timeout)
        return map_with_retries(self.inner, faulty, indexed, self.retry_policy, timeout=timeout)

    def close(self) -> None:
        self.inner.close()


class FaultInjectingBackend(StoreBackend):
    """A :class:`StoreBackend` wrapper that fails or delays scripted calls.

    Parameters
    ----------
    inner:
        The real backend every non-failing call is delegated to.
    fail:
        Mapping ``method name -> call numbers`` (1-based, counted per
        method) on which the call raises ``exception`` *instead of*
        delegating.
    delay:
        Mapping ``method name -> seconds`` slept before every delegation —
        the lever for piling up in-flight requests in overload tests.
    exception:
        The type raised on scripted failures (default
        :class:`~repro.exceptions.TransientError`, so retry layers treat the
        fault as transient).
    """

    def __init__(
        self,
        inner: StoreBackend,
        fail: Optional[Mapping[str, Sequence[int]]] = None,
        delay: Optional[Mapping[str, float]] = None,
        exception: Type[BaseException] = TransientError,
    ):
        self.inner = inner
        self.fail = {method: set(calls) for method, calls in (fail or {}).items()}
        self.delay = dict(delay or {})
        self.exception = exception
        self.calls: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _before(self, method: str) -> None:
        with self._lock:
            count = self.calls.get(method, 0) + 1
            self.calls[method] = count
        seconds = self.delay.get(method)
        if seconds:
            time.sleep(seconds)
        if count in self.fail.get(method, ()):
            raise self.exception(f"injected store fault ({method} call {count})")

    def put(self, key: str, document: bytes, answers: bytes) -> None:
        self._before("put")
        self.inner.put(key, document, answers)

    def get_document(self, key: str) -> bytes:
        self._before("get_document")
        return self.inner.get_document(key)

    def get_answers(self, key: str) -> Optional[bytes]:
        self._before("get_answers")
        return self.inner.get_answers(key)

    def exists(self, key: str) -> bool:
        self._before("exists")
        return self.inner.exists(key)

    def delete(self, key: str) -> None:
        self._before("delete")
        self.inner.delete(key)

    def keys(self) -> List[str]:
        self._before("keys")
        return self.inner.keys()

    def fingerprint(self, key: str) -> Optional[str]:
        self._before("fingerprint")
        return self.inner.fingerprint(key)

    def describe(self) -> str:
        return f"fault-injecting({self.inner.describe()})"

    def query_catalog(self, release_filter) -> List[Dict[str, object]]:
        self._before("query_catalog")
        return self.inner.query_catalog(release_filter)

    def revision(self) -> int:
        self._before("revision")
        return self.inner.revision()

    def lineage(self, key: str) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        self._before("lineage")
        return self.inner.lineage(key)

    def stale_keys(self) -> Tuple[int, List[str]]:
        self._before("stale_keys")
        return self.inner.stale_keys()
