"""The task-event log: a sweep's single record of per-task state.

A long-running sweep is a black box unless every unit of work reports where
it is.  This module turns a sweep into a *monitored job* the way ert's
ensemble evaluator does: each task emits :class:`TaskEvent`\\ s
(``PENDING → RUNNING → RETRYING → DONE | FAILED``) and a
:class:`SweepSnapshot` reduces the append-only event stream into one
consistent view — each task's latest event, per-state counts and an ETA
derived from completed wall times — that can be streamed to a CLI as
structured ``{"event": "sweep-progress", ...}`` lines.

For a journaled run the stream lives at ``<journal>.events.jsonl`` and is
the run's only state record: ``DONE`` events carry the task's result row
(:meth:`SweepSnapshot.row`), ``FAILED`` events their error detail, and the
:class:`~repro.evaluation.journal.RunJournal` beside it is just the header
that names the run.  A killed sweep reopens with its full history and
reuses every recorded row.

Reduction contract
------------------
Events are reduced per task key by keeping the **maximal** event under the
total order ``(attempt, state rank)`` with states ranked
``PENDING < RUNNING < RETRYING < DONE < FAILED``.  A maximum is
commutative, associative and idempotent, so *any* interleaving or
duplication of a valid event stream reduces to the same snapshot — the
property ``tests/test_snapshot.py`` locks with hypothesis.  That is what
makes the snapshot safe to rebuild from an append-only file that several
runs (an interrupted sweep and its resume) have written to.

Attempt numbers are attempt-major on purpose: a resumed run re-announces an
interrupted task as ``RUNNING`` at ``attempt + 1``, which supersedes the
stale ``RUNNING`` (and even a recorded ``FAILED``) from the killed run, so
the reopened snapshot converges to consistent terminal states instead of
reporting tasks stuck mid-flight.

Every event record, and the CLI's ``sweep-progress`` line
(:meth:`SweepSnapshot.progress_line`), is one canonical JSON line
(:func:`canonical_line`: sorted keys, compact separators).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import EvaluationError, ValidationError

PathLike = Union[str, Path]

#: Task lifecycle states, in rank order (later states supersede earlier
#: ones at the same attempt number).
TASK_STATES: Tuple[str, ...] = ("PENDING", "RUNNING", "RETRYING", "DONE", "FAILED")

#: States a task can end in; a converged snapshot holds nothing else.
TERMINAL_STATES: Tuple[str, ...] = ("DONE", "FAILED")

_STATE_RANK: Dict[str, int] = {state: rank for rank, state in enumerate(TASK_STATES)}


def canonical_line(obj: Any) -> str:
    """One deterministic JSON line: sorted keys, compact separators.

    The snapshot's own canonical form (distinct from the store's indented
    :func:`~repro.utils.serialization.canonical_json_bytes`): progress lines
    and event records are grep-able one-liners on stderr and in the
    append-only stream file.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TaskEvent:
    """One observation of one sweep task.

    Parameters
    ----------
    key:
        The task's journal key (stable across runs of the same sweep).
    state:
        One of :data:`TASK_STATES`.
    attempt:
        1-based invocation number.  Pool rebuilds and resumed runs re-emit
        the task at a higher attempt, which is what lets a fresh event
        supersede stale state from a killed run.
    wall_seconds:
        Task wall-clock seconds, when known (``DONE`` events carry it).
    store_key:
        Release-store key the task persisted its artefact under, if any.
    error:
        ``{"type": ..., "message": ...}`` detail on ``FAILED`` events.
    row:
        The task's result row as JSON text (``json.dumps(row, default=str)``,
        which keeps the row's column order) on ``DONE`` events.
    """

    key: str
    state: str
    attempt: int = 1
    wall_seconds: Optional[float] = None
    store_key: Optional[str] = None
    error: Optional[Mapping[str, str]] = None
    row: Optional[str] = None

    def __post_init__(self):
        if self.state not in TASK_STATES:
            raise ValidationError(f"state must be one of {TASK_STATES}, got {self.state!r}")
        if int(self.attempt) < 1:
            raise ValidationError(f"attempt must be >= 1, got {self.attempt}")
        object.__setattr__(self, "attempt", int(self.attempt))
        if self.error is not None:
            object.__setattr__(self, "error", dict(self.error))

    @property
    def order(self) -> Tuple[int, int, bool, str]:
        """Total order used by the reduction: attempt-major, then state rank.

        At the same ``(attempt, rank)`` an event carrying a row wins, so a
        row-bearing ``DONE`` replaces a bare one.  The canonical
        serialisation breaks the remaining ties, so the order is total over
        *distinct* events — without it, two events at the same
        ``(attempt, rank)`` but different payloads (say ``DONE`` with and
        without a wall time) would reduce first-writer-wins, breaking the
        interleaving invariance the property suite locks.
        """
        rank = _STATE_RANK[self.state]
        return (self.attempt, rank, self.row is not None, canonical_line(self.to_dict()))

    def supersedes(self, other: Optional["TaskEvent"]) -> bool:
        """Whether this event replaces ``other`` in the reduced view."""
        return other is None or self.order > other.order

    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        payload: Dict[str, Any] = {"key": self.key, "state": self.state, "attempt": self.attempt}
        if self.wall_seconds is not None:
            payload["wall_seconds"] = self.wall_seconds
        if self.store_key is not None:
            payload["store_key"] = self.store_key
        if self.error is not None:
            payload["error"] = dict(self.error)
        if self.row is not None:
            payload["row"] = self.row
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskEvent":
        try:
            return cls(
                key=str(data["key"]),
                state=str(data["state"]),
                attempt=int(data.get("attempt", 1)),
                wall_seconds=data.get("wall_seconds"),
                store_key=data.get("store_key"),
                error=data.get("error"),
                row=data.get("row"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EvaluationError(f"malformed task event {data!r}: {exc}") from exc


class SweepSnapshot:
    """Append-only :class:`TaskEvent` stream reduced to one consistent view.

    Parameters
    ----------
    name:
        Label of the sweep (the :class:`~repro.evaluation.sweep.ParameterSweep`
        name, or an ad-hoc tag).
    total:
        Expected number of tasks (0 = unknown; :meth:`progress_line` then
        reports the observed task count).
    plan:
        The :attr:`~repro.execution.scheduler.SweepScheduler.plan` record —
        how many workers the run negotiated under which budget — stored
        verbatim so the plan is part of the history.
    path:
        Optional append-only event-stream file (``<journal>.events.jsonl``
        for a journaled run).  Every *reducing* event is appended as one
        canonical JSON line; :meth:`open` replays the file so a killed sweep
        reopens with its full history.
    """

    def __init__(
        self,
        name: str = "sweep",
        total: int = 0,
        plan: Optional[Mapping[str, Any]] = None,
        path: Optional[PathLike] = None,
    ):
        self.name = str(name)
        self.total = int(total)
        self.plan = dict(plan) if plan is not None else None
        self.path = Path(path) if path is not None else None
        self.tasks: Dict[str, TaskEvent] = {}
        # (offset, prefix) the next append must start from when the stream
        # ends without a newline; see open().
        self._tail: Optional[Tuple[int, str]] = None

    # -- persistence -------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: PathLike,
        name: str = "sweep",
        total: int = 0,
        plan: Optional[Mapping[str, Any]] = None,
    ) -> "SweepSnapshot":
        """Reopen (or start) a snapshot backed by an event-stream file.

        Replays every recorded event; a corrupt newline-terminated line
        raises :class:`~repro.exceptions.EvaluationError`.  A final line
        without its newline was cut short by a killed writer: it is dropped
        unless it parses, and the next append (never this read) starts a
        fresh line instead of gluing onto it.
        """
        snapshot = cls(name=name, total=total, plan=plan, path=path)
        stream = Path(path)
        if not stream.is_file():
            return snapshot
        data = stream.read_bytes()
        end = data.rfind(b"\n") + 1
        lines = data[:end].decode("utf-8").splitlines()
        for number, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                event = TaskEvent.from_dict(json.loads(line))
            except (json.JSONDecodeError, EvaluationError) as exc:
                raise EvaluationError(
                    f"snapshot stream {stream} is corrupt at line {number + 1}: {exc}"
                ) from exc
            snapshot._reduce(event)
        if end < len(data):
            try:
                snapshot._reduce(TaskEvent.from_dict(json.loads(data[end:])))
                snapshot._tail = (len(data), "\n")  # whole event, newline lost
            except (ValueError, EvaluationError):
                snapshot._tail = (end, "")  # torn: the next append overwrites it
        return snapshot

    def _append(self, event: TaskEvent) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            if self._tail is not None:
                offset, prefix = self._tail
                handle.truncate(offset)
                handle.write(prefix)
                self._tail = None
            handle.write(canonical_line(event.to_dict()) + "\n")

    # -- reduction ---------------------------------------------------------
    def _reduce(self, event: TaskEvent) -> bool:
        current = self.tasks.get(event.key)
        if not event.supersedes(current):
            return False
        self.tasks[event.key] = event
        return True

    def record(self, event: TaskEvent) -> bool:
        """Reduce one event into the view (and append it to the stream file).

        Returns whether the event changed the reduced view; superseded or
        duplicate events are no-ops and are not re-appended, so replaying a
        stream never grows it.
        """
        changed = self._reduce(event)
        if changed:
            self._append(event)
        return changed

    def attempt(self, key: str) -> int:
        """The latest recorded attempt for ``key`` (0 when never seen)."""
        event = self.tasks.get(key)
        return event.attempt if event is not None else 0

    def state(self, key: str) -> Optional[str]:
        event = self.tasks.get(key)
        return event.state if event is not None else None

    def row(self, key: str) -> Optional[Dict[str, Any]]:
        """The result row of ``key``'s reduced ``DONE`` event (``None``
        when the task is not done or its event carries no row)."""
        event = self.tasks.get(key)
        if event is None or event.state != "DONE" or event.row is None:
            return None
        return json.loads(event.row)

    # -- aggregate view ----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Tasks per state.  Tasks never announced count as ``PENDING``
        when ``total`` says they exist."""
        counts = {state: 0 for state in TASK_STATES}
        for event in self.tasks.values():
            counts[event.state] += 1
        unseen = self.total - len(self.tasks)
        if unseen > 0:
            counts["PENDING"] += unseen
        return counts

    def eta_seconds(self) -> Optional[float]:
        """Projected seconds of work left: mean DONE wall time x open tasks.

        ``None`` until at least one ``DONE`` event carried a wall time.
        Deterministic given the reduced view, so it survives the
        interleaving/duplication property like every other aggregate field.
        """
        walls = [
            event.wall_seconds
            for event in self.tasks.values()
            if event.state == "DONE" and event.wall_seconds is not None
        ]
        if not walls:
            return None
        counts = self.counts()
        open_tasks = counts["PENDING"] + counts["RUNNING"] + counts["RETRYING"]
        return round(sum(walls) / len(walls) * open_tasks, 6)

    def is_converged(self) -> bool:
        """Every expected task observed, and every observed task terminal."""
        if self.total and len(self.tasks) < self.total:
            return False
        return bool(self.tasks) and all(
            event.is_terminal() for event in self.tasks.values()
        )

    def progress_line(self) -> str:
        """One structured ``sweep-progress`` line for the CLI's stderr."""
        counts = self.counts()
        payload: Dict[str, Any] = {
            "event": "sweep-progress",
            "name": self.name,
            "total": self.total if self.total else len(self.tasks),
            "pending": counts["PENDING"],
            "running": counts["RUNNING"],
            "retrying": counts["RETRYING"],
            "done": counts["DONE"],
            "failed": counts["FAILED"],
            "eta_seconds": self.eta_seconds(),
        }
        return canonical_line(payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepSnapshot({self.name!r}, {self.counts()})"


class SnapshotRecorder:
    """The one bookkeeping path :func:`~repro.evaluation.journal.checkpointed_map` drives.

    Translates the map's lifecycle hooks into :class:`TaskEvent`\\ s on a
    :class:`SweepSnapshot` and (optionally) emits a ``sweep-progress`` line
    after every wave via ``progress`` (any callable taking the line string —
    the CLI passes ``print``-to-stderr).

    Attempt numbers continue across runs: a key the reopened snapshot has
    already seen at attempt *n* is re-announced at *n + 1*, which is what
    lets resumed events supersede the stale state a killed run left behind.
    """

    def __init__(
        self,
        snapshot: SweepSnapshot,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.snapshot = snapshot
        self.progress = progress

    def _emit_progress(self) -> None:
        if self.progress is not None:
            self.progress(self.snapshot.progress_line())

    def _attempt(self, key: str) -> int:
        return max(1, self.snapshot.attempt(key))

    # -- checkpointed_map hooks -------------------------------------------
    def on_schedule(self, keys: Sequence[str]) -> None:
        """All task keys, before any wave runs (announces ``PENDING``)."""
        if self.snapshot.total < len(keys):
            self.snapshot.total = len(keys)
        for key in keys:
            if key not in self.snapshot.tasks:
                self.snapshot.record(TaskEvent(key=key, state="PENDING"))
        self._emit_progress()

    def on_wave_start(self, keys: Sequence[str]) -> None:
        """A wave was submitted to the executor (announces ``RUNNING``)."""
        for key in keys:
            attempt = self._attempt(key)
            if self.snapshot.state(key) not in (None, "PENDING"):
                # Re-running an interrupted/failed task: a fresh attempt
                # supersedes the stale state the killed run left behind.
                attempt += 1
            self.snapshot.record(TaskEvent(key=key, state="RUNNING", attempt=attempt))

    def on_retrying(self, keys: Sequence[str]) -> None:
        """The executor resubmitted these tasks (worker death, pool rebuild)."""
        for key in keys:
            self.snapshot.record(
                TaskEvent(key=key, state="RETRYING", attempt=self._attempt(key) + 1)
            )

    def on_done(self, key: str, row: Mapping[str, Any]) -> None:
        """A task finished; its ``DONE`` event carries the row as JSON text."""
        store_key = row.get("store_key")
        self.snapshot.record(
            TaskEvent(
                key=key,
                state="DONE",
                attempt=self._attempt(key),
                wall_seconds=_row_wall_seconds(row),
                store_key=str(store_key) if store_key is not None else None,
                row=json.dumps(row, default=str),
            )
        )

    def on_failed(self, key: str, error: Mapping[str, Any]) -> None:
        """A task raised; ``error`` is :func:`~repro.evaluation.journal.describe_error` detail."""
        detail = {"type": str(error["type"]), "message": str(error["message"])}
        self.snapshot.record(
            TaskEvent(key=key, state="FAILED", attempt=self._attempt(key), error=detail)
        )

    def on_wave_end(self) -> None:
        self._emit_progress()


def _row_wall_seconds(row: Mapping[str, Any]) -> Optional[float]:
    """Wall time a result row carries, if any (``record_time`` sweep rows
    carry ``elapsed_seconds``; a runner's own ``total_seconds`` counts too)."""
    for column in ("elapsed_seconds", "total_seconds"):
        value = row.get(column)
        if isinstance(value, (int, float)):
            return float(value)
    return None
