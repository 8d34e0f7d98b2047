"""The run journal: a resumable run's identity header over its event log.

A journaled run keeps one record of per-item state, the append-only
:class:`~repro.evaluation.snapshot.TaskEvent` log at
``<journal>.events.jsonl``: ``DONE`` events carry the result row,
``FAILED`` events the error detail.  A run re-opened with the same journal
reuses every ``DONE`` row verbatim and runs only unfinished items again.
Because disclosure spends irreversible privacy budget, "reused verbatim" is
the point — a resumed sweep never re-discloses a completed combination.

:class:`RunJournal` itself is only a header, ``{"version": 2,
"fingerprint": ...}``, written once (temp file + rename) when a run starts.
Re-opening a journal with a different fingerprint (grid, seeds,
parameters) is refused rather than silently mixing two experiments' rows;
that guard is why rows are reused only under a journal.  A version-1
journal, which kept per-item entries itself, is converted once: its
``done`` rows become ``DONE`` events, then the header is rewritten.

:meth:`~repro.evaluation.sweep.ParameterSweep.run` is the one journaled
runner: :func:`open_run` opens its journal, log and recorder, and
:func:`checkpointed_map` fans its combinations out through the
scheduler's executor in pool-width waves under the ``fail_fast`` /
``collect_errors`` policy.
"""

from __future__ import annotations

import json
import os
import traceback
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.evaluation.snapshot import PathLike, SnapshotRecorder, SweepSnapshot
from repro.exceptions import EvaluationError, SweepInterrupted
from repro.execution import Executor

#: Recognised error policies for journaled runs.
ERROR_POLICIES: Tuple[str, ...] = ("fail_fast", "collect_errors")


def check_error_policy(value: str) -> str:
    """Validate an ``on_error`` policy name."""
    if value not in ERROR_POLICIES:
        raise EvaluationError(f"on_error must be one of {ERROR_POLICIES}, got {value!r}")
    return value


class RunJournal:
    """A run's header: which run its event log belongs to.

    Parameters
    ----------
    path:
        The journal file; the run's event log is ``<path>.events.jsonl``
        (:attr:`events_path`).  An existing file is loaded and validated
        against ``fingerprint``.
    fingerprint:
        Identifies the run configuration.  ``None`` adopts the stored one
        (only sensible for reading an existing journal).
    """

    VERSION = 2

    def __init__(self, path: PathLike, fingerprint: Optional[str] = None):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.events_path = self.path.with_name(self.path.name + ".events.jsonl")
        # done rows of a version-1 journal, moved into the log by start()
        self._v1_rows: Dict[str, Dict[str, Any]] = {}
        if self.path.is_file():
            self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
            version = payload["version"]
            stored_fingerprint = payload.get("fingerprint")
            if version == 1:
                self._v1_rows = {
                    str(key): entry["row"]
                    for key, entry in payload["entries"].items()
                    if entry["status"] == "done" and entry.get("row") is not None
                }
        except (OSError, json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise EvaluationError(f"journal {self.path} is corrupt: {exc}") from exc
        if version not in (1, self.VERSION):
            raise EvaluationError(
                f"journal {self.path} has version {version!r}, expected {self.VERSION}"
            )
        if self.fingerprint is None:
            self.fingerprint = stored_fingerprint
        elif stored_fingerprint is not None and stored_fingerprint != self.fingerprint:
            raise EvaluationError(
                f"journal {self.path} belongs to a different run "
                f"(fingerprint {stored_fingerprint!r} != {self.fingerprint!r}); "
                "use a fresh journal path per run configuration"
            )

    def log(self) -> SweepSnapshot:
        """The run's event log, reduced: the view of every item's state
        (``state``), result row (``row``) and attempt."""
        return SweepSnapshot.open(self.events_path)

    def start(self, recorder: SnapshotRecorder) -> None:
        """Begin a run recording into this journal's log.

        Converts a version-1 journal's ``done`` rows into ``DONE`` events,
        then writes the header atomically (temp file + rename).  Nothing
        else writes the journal file during the run.
        """
        for key, row in self._v1_rows.items():
            recorder.on_done(key, row)
        self._v1_rows = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": self.VERSION, "fingerprint": self.fingerprint}
        tmp_path = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp_path, self.path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunJournal({str(self.path)!r}, fingerprint={self.fingerprint!r})"


def open_run(
    journal: Union[None, PathLike, RunJournal],
    snapshot: Union[None, PathLike, SweepSnapshot],
    progress: Optional[Callable[[str], None]],
    fingerprint: str,
    name: str,
    total: int,
    plan: Dict[str, Any],
) -> Tuple[SnapshotRecorder, bool]:
    """Open a run's journal, event log and recorder.

    Returns ``(recorder, resume)``; ``resume`` is true for journaled runs,
    the only ones whose recorded rows may be reused.  A journaled run
    records into ``<journal>.events.jsonl``, so ``snapshot`` must then be
    ``None`` or that path.  An unjournaled run without a ``snapshot``
    records into memory.
    """
    if journal is not None:
        if not isinstance(journal, RunJournal):
            journal = RunJournal(journal, fingerprint=fingerprint)
        if snapshot is None:
            snapshot = journal.events_path
        given = snapshot.path if isinstance(snapshot, SweepSnapshot) else Path(snapshot)
        if given is None or given.resolve() != journal.events_path.resolve():
            raise EvaluationError(
                f"journal {journal.path} keeps its event log at {journal.events_path}, "
                f"not {given}; pass snapshot=None or that path"
            )
    if snapshot is None:
        snapshot = SweepSnapshot(name=name, total=total, plan=plan)
    elif not isinstance(snapshot, SweepSnapshot):
        snapshot = SweepSnapshot.open(snapshot, name=name, total=total, plan=plan)
    if snapshot.plan is None:
        snapshot.plan = dict(plan)
    recorder = SnapshotRecorder(snapshot, progress=progress)
    if journal is not None:
        journal.start(recorder)
    return recorder, journal is not None


def describe_error(error: BaseException) -> Dict[str, str]:
    """JSON-serialisable error detail for a ``FAILED`` event and ``errors``."""
    return {
        "type": type(error).__name__,
        "message": str(error),
        "traceback": "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        ),
    }


def _guarded(fn: Callable[[Any], Dict[str, Any]], item: Any) -> Tuple[str, Any]:
    """Run one item, capturing any exception as data (executor task)."""
    try:
        return ("ok", fn(item))
    except Exception as error:  # noqa: BLE001 - converted to error detail
        return ("error", describe_error(error))


def checkpointed_map(
    pool: Executor,
    fn: Callable[[Any], Dict[str, Any]],
    items: Sequence[Any],
    keys: Sequence[str],
    recorder: SnapshotRecorder,
    resume: bool = False,
    on_error: str = "fail_fast",
    timeout: Optional[float] = None,
) -> Tuple[List[Optional[Dict[str, Any]]], List[Dict[str, Any]]]:
    """Map ``fn`` over ``items`` in recorded waves under an error policy.

    ``recorder`` (see :func:`open_run`) records every transition.  With
    ``resume``, items whose reduced event is a ``DONE`` with a row are
    **not** re-run; their rows are returned in place.  The rest run in waves
    of the pool's width, so an interruption loses at most the wave in
    flight.  While a wave runs, the pool's ``on_retry`` hook reports
    resubmitted items to ``recorder.on_retrying``, so a crash-recovery
    resubmission shows up as ``RETRYING`` instead of a silent gap.

    Returns ``(rows, errors)`` where ``rows`` is in item order (``None`` for
    items that failed) and ``errors`` lists error details with their keys.
    Under ``fail_fast`` the first failed wave raises
    :class:`~repro.exceptions.SweepInterrupted` *after* recording, so the
    run stays resumable.
    """
    check_error_policy(on_error)
    if len(items) != len(keys):
        raise EvaluationError("items and keys must have the same length")
    recorder.on_schedule(list(keys))
    rows = [recorder.snapshot.row(key) if resume else None for key in keys]
    pending = [index for index, row in enumerate(rows) if row is None]
    errors: List[Dict[str, Any]] = []

    wave_size = max(1, getattr(pool, "max_workers", 1))
    task = partial(_guarded, fn)
    for start in range(0, len(pending), wave_size):
        wave = pending[start : start + wave_size]
        recorder.on_wave_start([keys[index] for index in wave])
        previous_on_retry = pool.on_retry
        pool.on_retry = lambda local, _wave=wave: recorder.on_retrying(
            [keys[_wave[index]] for index in local]
        )
        try:
            outcomes = pool.map(task, [items[index] for index in wave], timeout=timeout)
        finally:
            pool.on_retry = previous_on_retry
        failed: List[Dict[str, Any]] = []
        for index, (status, payload) in zip(wave, outcomes):
            key = keys[index]
            if status == "ok":
                rows[index] = payload
                recorder.on_done(key, payload)
            else:
                failed.append({"key": key, **payload})
                recorder.on_failed(key, payload)
        errors.extend(failed)
        recorder.on_wave_end()
        if failed and on_error == "fail_fast":
            first = failed[0]
            raise SweepInterrupted(
                f"combination {first['key']!r} failed with {first['type']}: "
                f"{first['message']}"
                + (" (run log checkpointed; re-run with the same journal to resume)"
                   if resume else "")
            )
    return rows, errors
