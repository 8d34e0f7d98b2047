"""Snapshot reduction properties and the sweep-progress serialisation contract.

The load-bearing property (hypothesis-verified): reducing a stream of
:class:`~repro.evaluation.snapshot.TaskEvent`\\ s is a per-key *maximum*
under the total order ``(attempt, state rank)`` — commutative, associative
and idempotent — so **any interleaving or duplication of a valid event
stream reduces to the same snapshot**.  That is what makes the
append-only stream file safe to rebuild after an interrupted sweep and its
resume have both written to it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.journal import checkpointed_map
from repro.evaluation.snapshot import (
    TASK_STATES,
    SnapshotRecorder,
    SweepSnapshot,
    TaskEvent,
    canonical_line,
)
from repro.exceptions import EvaluationError, ValidationError
from repro.execution import SerialExecutor

# -- hypothesis strategies ---------------------------------------------------

event_strategy = st.builds(
    TaskEvent,
    key=st.sampled_from(["a", "b", "c", "d"]),
    state=st.sampled_from(TASK_STATES),
    attempt=st.integers(min_value=1, max_value=5),
    wall_seconds=st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)),
    store_key=st.one_of(st.none(), st.sampled_from(["k1", "k2"])),
)


def _reduce(events):
    snapshot = SweepSnapshot(name="prop", total=4)
    for event in events:
        snapshot.record(event)
    return snapshot


class TestReductionProperties:
    @given(
        events=st.lists(event_strategy, max_size=30),
        shuffled=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaving_invariance(self, events, shuffled):
        """Any permutation of an event stream reduces to the same snapshot."""
        permuted = list(events)
        shuffled.shuffle(permuted)
        assert _reduce(events).tasks == _reduce(permuted).tasks

    @given(
        events=st.lists(event_strategy, max_size=20),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_duplication_invariance(self, events, data):
        """Re-delivering any subset of events never changes the reduction."""
        duplicates = (
            data.draw(st.lists(st.sampled_from(events), max_size=10)) if events else []
        )
        assert _reduce(events).tasks == _reduce(events + duplicates).tasks

    @given(events=st.lists(event_strategy, min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_reduced_event_is_maximal(self, events):
        snapshot = _reduce(events)
        for key, kept in snapshot.tasks.items():
            for event in events:
                if event.key == key:
                    assert kept.order >= event.order


class TestTaskEvent:
    def test_rejects_unknown_state(self):
        with pytest.raises(ValidationError, match="state must be one of"):
            TaskEvent(key="a", state="EXPLODED")

    def test_rejects_non_positive_attempt(self):
        with pytest.raises(ValidationError, match="attempt must be >= 1"):
            TaskEvent(key="a", state="RUNNING", attempt=0)

    def test_attempt_major_ordering(self):
        """A resumed run's RUNNING(2) supersedes the killed run's FAILED(1) —
        rank only breaks ties within the same attempt."""
        failed = TaskEvent(key="a", state="FAILED", attempt=1)
        rerun = TaskEvent(key="a", state="RUNNING", attempt=2)
        assert rerun.supersedes(failed)
        assert not failed.supersedes(rerun)
        running = TaskEvent(key="a", state="RUNNING", attempt=1)
        assert failed.supersedes(running)

    def test_row_bearing_done_supersedes_a_bare_done(self):
        bare = TaskEvent(key="a", state="DONE", attempt=1)
        with_row = TaskEvent(key="a", state="DONE", attempt=1, row='{"y": 1}')
        assert with_row.supersedes(bare)
        assert not bare.supersedes(with_row)

    def test_dict_round_trip_omits_unset_fields(self):
        event = TaskEvent(key="a", state="DONE", attempt=2, wall_seconds=0.5)
        payload = event.to_dict()
        assert "store_key" not in payload and "error" not in payload
        assert TaskEvent.from_dict(payload) == event

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(EvaluationError, match="malformed task event"):
            TaskEvent.from_dict({"state": "DONE"})


class TestSweepSnapshotView:
    def test_counts_include_unseen_tasks_as_pending(self):
        snapshot = SweepSnapshot(total=5)
        snapshot.record(TaskEvent(key="a", state="DONE"))
        snapshot.record(TaskEvent(key="b", state="RUNNING"))
        counts = snapshot.counts()
        assert counts["DONE"] == 1 and counts["RUNNING"] == 1
        assert counts["PENDING"] == 3

    def test_eta_from_mean_done_wall_time(self):
        snapshot = SweepSnapshot(total=4)
        snapshot.record(TaskEvent(key="a", state="DONE", wall_seconds=2.0))
        snapshot.record(TaskEvent(key="b", state="DONE", wall_seconds=4.0))
        snapshot.record(TaskEvent(key="c", state="RUNNING"))
        # mean 3.0s x (1 RUNNING + 1 unseen PENDING) open tasks
        assert snapshot.eta_seconds() == pytest.approx(6.0)

    def test_eta_none_without_wall_times(self):
        snapshot = SweepSnapshot(total=2)
        snapshot.record(TaskEvent(key="a", state="DONE"))
        assert snapshot.eta_seconds() is None

    def test_converged_requires_all_tasks_terminal(self):
        snapshot = SweepSnapshot(total=2)
        snapshot.record(TaskEvent(key="a", state="DONE"))
        assert not snapshot.is_converged()  # b never observed
        snapshot.record(TaskEvent(key="b", state="RETRYING"))
        assert not snapshot.is_converged()
        snapshot.record(TaskEvent(key="b", state="FAILED", attempt=1))
        assert snapshot.is_converged()

    def test_record_returns_false_for_superseded_events(self):
        snapshot = SweepSnapshot()
        assert snapshot.record(TaskEvent(key="a", state="DONE", attempt=2))
        assert not snapshot.record(TaskEvent(key="a", state="RUNNING", attempt=1))
        assert snapshot.state("a") == "DONE"

    def test_progress_line_is_canonical_json(self):
        snapshot = SweepSnapshot(name="s", total=3)
        snapshot.record(TaskEvent(key="a", state="DONE", wall_seconds=1.0))
        line = snapshot.progress_line()
        assert line == canonical_line(json.loads(line))
        payload = json.loads(line)
        assert payload["event"] == "sweep-progress"
        assert payload["done"] == 1 and payload["pending"] == 2
        assert payload["total"] == 3


class TestSnapshotStreamFile:
    def test_reopen_replays_the_event_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = SweepSnapshot(name="s", total=2, path=path)
        first.record(TaskEvent(key="a", state="RUNNING"))
        first.record(TaskEvent(key="a", state="DONE", wall_seconds=0.2))
        first.record(TaskEvent(key="b", state="RUNNING"))

        reopened = SweepSnapshot.open(path, name="s", total=2)
        assert reopened.state("a") == "DONE"
        assert reopened.state("b") == "RUNNING"
        assert reopened.tasks == first.tasks

    def test_superseded_events_are_not_appended(self, tmp_path):
        path = tmp_path / "events.jsonl"
        snapshot = SweepSnapshot(path=path)
        snapshot.record(TaskEvent(key="a", state="DONE", attempt=2))
        snapshot.record(TaskEvent(key="a", state="RUNNING", attempt=1))  # no-op
        assert len(path.read_text().splitlines()) == 1

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        SweepSnapshot(path=path).record(TaskEvent(key="a", state="DONE"))
        with path.open("a") as handle:
            handle.write('{"key":"b","state":"RUN')  # killed mid-append
        reopened = SweepSnapshot.open(path)
        assert reopened.state("a") == "DONE"
        assert reopened.state("b") is None

    def test_append_after_a_torn_line_starts_a_fresh_line(self, tmp_path):
        """A resumed writer must not glue its first event onto the torn
        tail: both resumed events survive, and the stream stays openable."""
        path = tmp_path / "events.jsonl"
        SweepSnapshot(path=path).record(TaskEvent(key="a", state="DONE"))
        with path.open("a") as handle:
            handle.write('{"key":"b","state":"RUN')  # killed mid-append
        resumed = SweepSnapshot.open(path)
        resumed.record(TaskEvent(key="b", state="RUNNING", attempt=2))
        resumed.record(TaskEvent(key="c", state="DONE", wall_seconds=0.1))
        reopened = SweepSnapshot.open(path)
        assert reopened.state("a") == "DONE"
        assert reopened.state("b") == "RUNNING" and reopened.attempt("b") == 2
        assert reopened.state("c") == "DONE"
        assert len(path.read_text().splitlines()) == 3

    def test_whole_last_event_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"attempt":1,"key":"a","state":"DONE"}')
        resumed = SweepSnapshot.open(path)
        assert resumed.state("a") == "DONE"
        resumed.record(TaskEvent(key="b", state="PENDING"))
        reopened = SweepSnapshot.open(path)
        assert reopened.state("a") == "DONE" and reopened.state("b") == "PENDING"

    def test_opening_a_torn_stream_does_not_touch_the_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"attempt":1,"key":"a","state":"DONE"}\n{"key":"b"')
        before = path.read_bytes()
        SweepSnapshot.open(path)
        assert path.read_bytes() == before

    def test_mid_stream_corruption_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('garbage\n{"key":"a","state":"DONE","attempt":1}\n')
        with pytest.raises(EvaluationError, match="corrupt at line 1"):
            SweepSnapshot.open(path)


class TestSnapshotRecorder:
    def test_wave_lifecycle_and_progress_lines(self):
        snapshot = SweepSnapshot(name="s")
        lines = []
        recorder = SnapshotRecorder(snapshot, progress=lines.append)
        recorder.on_schedule(["a", "b"])
        recorder.on_wave_start(["a", "b"])
        recorder.on_done("a", {"elapsed_seconds": 0.1})
        recorder.on_failed("b", {"type": "Boom", "message": "x", "traceback": "..."})
        recorder.on_wave_end()
        assert snapshot.state("a") == "DONE"
        assert snapshot.tasks["a"].wall_seconds == pytest.approx(0.1)
        assert snapshot.state("b") == "FAILED"
        assert snapshot.tasks["b"].error == {"type": "Boom", "message": "x"}
        assert len(lines) == 2  # schedule + wave end
        for line in lines:
            assert json.loads(line)["event"] == "sweep-progress"

    def test_executor_retry_surfaces_as_retrying(self):
        snapshot = SweepSnapshot(name="s")
        recorder = SnapshotRecorder(snapshot)
        recorder.on_schedule(["a"])
        recorder.on_wave_start(["a"])
        recorder.on_retrying(["a"])
        assert snapshot.state("a") == "RETRYING"
        assert snapshot.attempt("a") == 2
        recorder.on_done("a", {})
        assert snapshot.state("a") == "DONE"
        assert snapshot.attempt("a") == 2

    def test_resume_supersedes_stale_running_state(self):
        """The kill/resume mechanism: a reopened snapshot's RUNNING(1) is
        superseded by the resumed run's RUNNING(2), then DONE(2)."""
        snapshot = SweepSnapshot(name="s", total=1)
        snapshot.record(TaskEvent(key="a", state="RUNNING", attempt=1))  # killed run
        recorder = SnapshotRecorder(snapshot)
        recorder.on_schedule(["a"])
        assert snapshot.state("a") == "RUNNING"  # PENDING(1) cannot supersede
        recorder.on_wave_start(["a"])
        assert snapshot.attempt("a") == 2
        recorder.on_done("a", {"elapsed_seconds": 0.3})
        assert snapshot.state("a") == "DONE"
        assert snapshot.is_converged()

    def test_reused_rows_report_done_without_new_attempt(self):
        snapshot = SweepSnapshot(name="s", total=1)
        snapshot.record(
            TaskEvent(key="a", state="DONE", attempt=3, wall_seconds=0.2, row='{"y": 4}')
        )
        recorder = SnapshotRecorder(snapshot)
        rows, errors = checkpointed_map(
            SerialExecutor(), _never_called, [2], ["a"], recorder, resume=True
        )
        assert rows == [{"y": 4}] and errors == []
        assert snapshot.attempt("a") == 3  # no phantom re-run
        assert snapshot.state("a") == "DONE"

    def test_done_event_carries_the_row_in_column_order(self):
        snapshot = SweepSnapshot(name="s")
        recorder = SnapshotRecorder(snapshot)
        recorder.on_schedule(["a"])
        recorder.on_wave_start(["a"])
        recorder.on_done("a", {"z": 1, "a": 0.5, "out": Path("out.db")})
        # Serialised like the rows it replaces: json with default=str.
        assert list(snapshot.row("a")) == ["z", "a", "out"]
        assert snapshot.row("a") == {"z": 1, "a": 0.5, "out": "out.db"}
        assert snapshot.row("missing") is None


def _never_called(item):
    raise AssertionError(f"a reused row re-ran item {item!r}")
