"""Pluggable parallel executors for the evaluation harnesses.

Every independent unit of work large enough to pay for a pool — per-trial
Figure-1 Monte-Carlo runs, per-combination sweep rows, per-size scalability
measurements — is expressed as a pure function mapped over a list of task
payloads.  An :class:`Executor` decides *where* that map runs (a single
disclosure is not among them: it perturbs its levels in-process):

* :class:`SerialExecutor` — in the calling thread, one task after another
  (the default, and the semantics every parallel backend must reproduce);
* :class:`ThreadExecutor` — a shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (useful when tasks release the GIL in NumPy kernels);
* :class:`ProcessExecutor` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  for CPU-bound fan-out across cores.

Determinism contract
--------------------
``Executor.map`` always returns results **in submission order**, and task
functions must carry their own random state (a picklable
:class:`numpy.random.SeedSequence` derived per task via
:func:`repro.utils.rng.derive_seedseq`) rather than sharing a sequentially
mutated generator.  Under that contract the three executors are bit-for-bit
interchangeable: ``tests/test_engine_parity.py`` locks serial, thread and
process Figure-1 trials and disclosure tasks to identical results for the
same seed.

Fault tolerance
---------------
The pool executors accept a per-task ``task_timeout`` (either at
construction or per ``map`` call): a task that does not finish in time
raises :class:`~repro.exceptions.TaskTimeoutError` and the remaining
submissions are cancelled, so a stuck worker can never hang a sweep forever.
:class:`ProcessExecutor` additionally survives **worker death**: when the
pool breaks (a worker segfaults or is OOM-killed) it harvests every result
that already completed, rebuilds the pool, and resubmits only the unfinished
tasks — because tasks are pure functions of their payload, the recovered run
is bit-identical to an undisturbed one.  Retries for transient in-task
exceptions live one layer up in :mod:`repro.execution.retry`.

Process caveats
---------------
:class:`ProcessExecutor` pickles the task function and every payload, so task
functions must be module-level callables (or :func:`functools.partial` over
one) and payloads must be picklable.  Nested process pools are not spawned:
code running inside a worker should use :class:`SerialExecutor`.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.exceptions import TaskTimeoutError, ValidationError, WorkerCrashError

#: Names accepted wherever an executor is selected by string.
EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "thread", "process")

#: The union of types accepted wherever the library takes an executor.
ExecutorSpec = Union[None, str, "Executor"]

#: Sentinel distinguishing "no result yet" from a ``None`` result.
_UNSET = object()


def default_max_workers() -> int:
    """Worker count used when none is configured (CPU count, floor 1)."""
    return max(1, os.cpu_count() or 1)


class Executor(abc.ABC):
    """Maps a function over task payloads, preserving submission order."""

    #: Name reported in configs and benchmark artefacts.
    name: str = "abstract"

    #: Concurrent task slots (1 for serial; used to size checkpoint chunks).
    max_workers: int = 1

    #: Optional observer hook: crash-recovering executors call this with the
    #: wave-local indices of tasks being resubmitted after worker death, so
    #: orchestration layers can surface a retry (``RETRYING`` in the sweep
    #: snapshot) instead of a silent gap.  ``None`` disables the callback.
    on_retry: Optional[Callable[[List[int]], None]] = None

    @abc.abstractmethod
    def map(
        self, fn: Callable[[Any], Any], tasks: Iterable[Any], timeout: Optional[float] = None
    ) -> List[Any]:
        """Apply ``fn`` to every task and return the results in task order.

        ``timeout`` bounds each task's wall-clock seconds where the backend
        can enforce it (the serial executor runs inline and cannot preempt).
        """

    def close(self) -> None:
        """Release any worker pool (idempotent; the serial executor is a no-op)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run every task inline in the calling thread.

    The reference semantics: parallel executors must produce exactly the
    results a :class:`SerialExecutor` produces for the same tasks.  Per-task
    timeouts are accepted but not enforced — inline execution cannot be
    preempted.
    """

    name = "serial"
    max_workers = 1

    def map(
        self, fn: Callable[[Any], Any], tasks: Iterable[Any], timeout: Optional[float] = None
    ) -> List[Any]:
        return [fn(task) for task in tasks]


def _collect_in_order(
    futures: "Dict[int, Future]",
    results: List[Any],
    timeout: Optional[float],
) -> None:
    """Drain futures into ``results`` by task index, failing fast.

    On any failure — a task exception or a per-task timeout — every
    not-yet-running future is cancelled before the error propagates, so the
    pool can be closed promptly on exception paths instead of draining a
    queue of doomed work.
    """
    try:
        for index, future in futures.items():
            try:
                results[index] = future.result(timeout=timeout)
            except FutureTimeoutError:
                raise TaskTimeoutError(
                    f"task {index} did not finish within {timeout}s",
                    task_index=index,
                    timeout=timeout,
                ) from None
    except BaseException:
        for future in futures.values():
            future.cancel()
        raise


class ThreadExecutor(Executor):
    """Fan tasks out over a lazily created thread pool.

    Threads share the interpreter, so payloads are not pickled and task
    functions may close over arbitrary state; speedups come from NumPy
    kernels that release the GIL.  A per-task ``task_timeout`` raises
    :class:`TaskTimeoutError`; the timed-out thread itself cannot be killed,
    so the pool is replaced on the next use rather than joined.
    """

    name = "thread"

    def __init__(self, max_workers: Optional[int] = None, task_timeout: Optional[float] = None):
        self.max_workers = int(max_workers) if max_workers is not None else default_max_workers()
        if self.max_workers < 1:
            raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
        self.task_timeout = task_timeout
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def map(
        self, fn: Callable[[Any], Any], tasks: Iterable[Any], timeout: Optional[float] = None
    ) -> List[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        timeout = timeout if timeout is not None else self.task_timeout
        if len(tasks) == 1 and timeout is None:  # skip pool dispatch for a single task
            return [fn(tasks[0])]
        pool = self._ensure_pool()
        futures = {index: pool.submit(fn, task) for index, task in enumerate(tasks)}
        results: List[Any] = [_UNSET] * len(tasks)
        try:
            _collect_in_order(futures, results, timeout)
        except TaskTimeoutError:
            # The stuck thread cannot be joined without hanging the caller:
            # abandon the pool (shutdown without waiting) and lazily build a
            # fresh one, so the executor stays usable after a timeout.
            self._pool = None
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessExecutor(Executor):
    """Fan tasks out over a lazily created process pool.

    Task functions must be picklable module-level callables and payloads
    must be picklable.  Results come back in submission order, so a
    process-parallel run is indistinguishable from a serial one as long as
    tasks carry their own derived random state.

    Worker death does not fail the map: completed results are harvested from
    the broken pool, the pool is rebuilt, and only unfinished tasks are
    resubmitted (up to ``max_pool_rebuilds`` times per map call) — tasks are
    pure, so the recovered results are bit-identical.
    """

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        max_pool_rebuilds: int = 2,
    ):
        self.max_workers = int(max_workers) if max_workers is not None else default_max_workers()
        if self.max_workers < 1:
            raise ValidationError(f"max_workers must be >= 1, got {max_workers}")
        if max_pool_rebuilds < 0:
            raise ValidationError(f"max_pool_rebuilds must be >= 0, got {max_pool_rebuilds}")
        self.task_timeout = task_timeout
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def map(
        self, fn: Callable[[Any], Any], tasks: Iterable[Any], timeout: Optional[float] = None
    ) -> List[Any]:
        # No single-task inline shortcut here (unlike ThreadExecutor): it
        # would skip pickling and let a non-picklable task succeed at n==1
        # only to fail when the task count grows — the contract must be
        # enforced uniformly.
        tasks = list(tasks)
        if not tasks:
            return []
        timeout = timeout if timeout is not None else self.task_timeout
        results: List[Any] = [_UNSET] * len(tasks)
        pending = list(range(len(tasks)))
        rebuilds = 0
        while pending:
            pool = self._ensure_pool()
            futures = {index: pool.submit(fn, tasks[index]) for index in pending}
            try:
                _collect_in_order(futures, results, timeout)
            except (BrokenProcessPool, CancelledError):
                # A worker died. Harvest everything that did finish, then
                # rebuild the pool and resubmit only the unfinished tasks.
                for index, future in futures.items():
                    if future.done() and not future.cancelled() and future.exception() is None:
                        results[index] = future.result()
                self._discard_pool()
                pending = [index for index in pending if results[index] is _UNSET]
                rebuilds += 1
                if rebuilds > self.max_pool_rebuilds:
                    raise WorkerCrashError(
                        f"process pool broke {rebuilds} times; "
                        f"{len(pending)} task(s) never completed",
                        unfinished=pending,
                    ) from None
                if pending and self.on_retry is not None:
                    self.on_retry(list(pending))
                continue
            except TaskTimeoutError:
                # The stuck worker would poison later maps: drop the pool.
                self._discard_pool()
                raise
            pending = []
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def check_executor_name(value: Any, name: str = "executor") -> str:
    """Validate an executor selector string."""
    if value not in EXECUTOR_NAMES:
        raise ValidationError(f"{name} must be one of {EXECUTOR_NAMES}, got {value!r}")
    return value


def executor_name(spec: ExecutorSpec) -> str:
    """Canonical name of an executor spec (``None`` means serial).

    Used to record execution provenance (e.g. in a release's ``config``)
    from whatever the caller actually passed — a name, ``None``, or a live
    :class:`Executor` instance.
    """
    if isinstance(spec, Executor):
        return spec.name
    if spec is None:
        return "serial"
    return check_executor_name(spec)


def make_executor(
    spec: ExecutorSpec = None,
    max_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> Executor:
    """Build an executor from a name, ``None`` (serial) or an existing instance.

    Parameters
    ----------
    spec:
        ``None`` / ``"serial"``, ``"thread"``, ``"process"`` or an
        :class:`Executor` (returned unchanged; the other arguments are
        ignored).
    max_workers:
        Pool size for the thread/process executors (defaults to the CPU count).
    task_timeout:
        Per-task wall-clock bound in seconds for the pool executors
        (``None`` disables; the serial executor cannot enforce one).
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None or spec == "serial":
        return SerialExecutor()
    check_executor_name(spec)
    if spec == "thread":
        return ThreadExecutor(max_workers=max_workers, task_timeout=task_timeout)
    return ProcessExecutor(max_workers=max_workers, task_timeout=task_timeout)


@contextmanager
def executor_scope(
    spec: ExecutorSpec = None,
    max_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
) -> Iterator[Executor]:
    """Context manager resolving ``spec`` and closing only pools it created.

    An :class:`Executor` *instance* passed in stays open (the caller owns its
    lifecycle); a name spec gets a fresh executor that is closed on exit —
    including exception exits, where any work the failure already cancelled
    (see the executors' fail-fast cancellation) keeps the close prompt.
    """
    if isinstance(spec, Executor):
        yield spec
        return
    executor = make_executor(spec, max_workers=max_workers, task_timeout=task_timeout)
    try:
        yield executor
    finally:
        executor.close()
