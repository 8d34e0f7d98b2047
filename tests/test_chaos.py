"""Chaos suite: the fault-tolerance contract under injected failures.

Two properties anchor everything here (the PR's acceptance criteria):

* an interrupted, journaled sweep **resumes** — completed combinations are
  never re-run (and never re-disclosed);
* a run disturbed by injected worker crashes, transient task failures or
  transient store IO errors produces a release **bit-identical** to the
  undisturbed run under the same seed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import ReleaseStore
from repro.datasets.dblp_like import generate_dblp_like
from repro.evaluation.journal import RunJournal
from repro.evaluation.sweep import ParameterSweep, combination_key
from repro.exceptions import (
    EvaluationError,
    SweepInterrupted,
    TaskTimeoutError,
    TransientError,
    WorkerCrashError,
)
from repro.execution import (
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    SweepScheduler,
    ThreadExecutor,
)
from repro.execution.faults import (
    AttemptLedger,
    DelayFault,
    FaultInjectingBackend,
    FaultInjectingExecutor,
    FaultPlan,
    KillWorkerFault,
    RaiseFault,
)
from repro.grouping.specialization import SpecializationConfig
from repro.utils.serialization import canonical_json_bytes

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _release_bytes(release) -> bytes:
    """Canonical bytes of a release (answers, guarantees, noise scales, ...)."""
    return canonical_json_bytes(release.to_dict())


def _disclose(graph, seed=11):
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config=config, rng=seed).disclose(graph)


def _disclose_task(seed):
    """One whole disclosure as an executor task, the way a sweep runs it."""
    return _release_bytes(_disclose(generate_dblp_like(num_authors=60, seed=0), seed=seed))


def _square(task):
    return task * task


class TestFaultPlan:
    def test_raise_fault_triggers_on_listed_attempts_only(self):
        fault = RaiseFault(attempts=(1, 3))
        with pytest.raises(TransientError):
            fault.trigger(0, 1)
        fault.trigger(0, 2)  # attempt 2: clean
        with pytest.raises(TransientError):
            fault.trigger(0, 3)

    def test_plan_is_per_task(self):
        plan = FaultPlan.transient([0, 2])
        assert len(plan.for_task(0)) == 1
        assert plan.for_task(1) == ()

    def test_ledger_counts_attempts_per_scope(self, tmp_path):
        ledger = AttemptLedger(tmp_path)
        assert ledger.record("map-1", 0) == 1
        assert ledger.record("map-1", 0) == 2
        assert ledger.record("map-2", 0) == 1
        assert ledger.attempts("map-1", 0) == 2
        assert ledger.attempts("map-9", 5) == 0


class TestInjectedTransientFaults:
    def test_retry_absorbs_transient_faults(self, tmp_path):
        chaos = FaultInjectingExecutor(
            SerialExecutor(),
            FaultPlan.transient([0, 2]),
            tmp_path,
            retry_policy=FAST_RETRY,
        )
        assert chaos.map(_square, [1, 2, 3]) == [1, 4, 9]
        # Faulted tasks ran twice, the clean one once.
        assert chaos.ledger.attempts("map-1", 0) == 2
        assert chaos.ledger.attempts("map-1", 1) == 1
        assert chaos.ledger.attempts("map-1", 2) == 2

    def test_without_retry_the_fault_escapes(self, tmp_path):
        chaos = FaultInjectingExecutor(SerialExecutor(), FaultPlan.transient([0]), tmp_path)
        with pytest.raises(TransientError):
            chaos.map(_square, [1, 2])

    def test_disclosure_bit_identical_under_transient_faults(self, tmp_path):
        """Acceptance: injected transient failures + retries leave the
        released artefacts bit-for-bit identical to the undisturbed run."""
        baseline = [_disclose_task(seed) for seed in (11, 12)]
        inner = ThreadExecutor(max_workers=2)
        chaos = FaultInjectingExecutor(
            inner, FaultPlan.transient([0, 1]), tmp_path, retry_policy=FAST_RETRY
        )
        try:
            disturbed = chaos.map(_disclose_task, [11, 12])
        finally:
            chaos.close()
        assert disturbed == baseline


class TestWorkerDeath:
    def test_pool_rebuild_recovers_killed_worker(self, tmp_path):
        plan = FaultPlan({1: (KillWorkerFault(attempts=(1,)),)})
        inner = ProcessExecutor(max_workers=2)
        chaos = FaultInjectingExecutor(inner, plan, tmp_path)
        try:
            assert chaos.map(_square, [3, 4, 5, 6]) == [9, 16, 25, 36]
        finally:
            chaos.close()
        # The victim ran twice (killed, then resubmitted on the fresh pool).
        assert chaos.ledger.attempts("map-1", 1) == 2

    def test_repeated_deaths_exhaust_rebuild_budget(self, tmp_path):
        plan = FaultPlan({0: (KillWorkerFault(attempts=(1, 2, 3, 4)),)})
        inner = ProcessExecutor(max_workers=2, max_pool_rebuilds=2)
        chaos = FaultInjectingExecutor(inner, plan, tmp_path)
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                chaos.map(_square, [1, 2])
            assert 0 in excinfo.value.unfinished
        finally:
            chaos.close()

    def test_disclosure_bit_identical_after_worker_crash(self, tmp_path):
        """Acceptance: a worker killed mid-disclosure is recovered by the
        pool rebuild and the release still matches the fault-free run."""
        baseline = [_disclose_task(seed) for seed in (11, 12)]
        plan = FaultPlan({0: (KillWorkerFault(attempts=(1,)),)})
        inner = ProcessExecutor(max_workers=2)
        chaos = FaultInjectingExecutor(inner, plan, tmp_path)
        try:
            disturbed = chaos.map(_disclose_task, [11, 12])
        finally:
            chaos.close()
        assert disturbed == baseline


class TestInjectedDelays:
    def test_delay_fault_trips_task_timeout(self, tmp_path):
        plan = FaultPlan({0: (DelayFault(seconds=5.0),)})
        inner = ThreadExecutor(max_workers=2)
        chaos = FaultInjectingExecutor(inner, plan, tmp_path)
        try:
            with pytest.raises(TaskTimeoutError):
                chaos.map(_square, [1, 2], timeout=0.2)
        finally:
            chaos.close()


class TestFaultInjectingBackend:
    def test_scripted_call_fails_then_recovers(self):
        backend = FaultInjectingBackend(ReleaseStore.in_memory().backend, fail={"put": (1,)})
        store = ReleaseStore(backend)
        graph = generate_dblp_like(num_authors=40, seed=2)
        release = _disclose(graph)
        with pytest.raises(TransientError):
            store.save(release, key="r")
        # A retried save (same already-disclosed artefact, no budget
        # re-spend) lands and round-trips bit-identically.
        FAST_RETRY.call(lambda: store.save(release, key="r"), key="save-r", sleep=lambda _: None)
        assert _release_bytes(store.load("r")) == _release_bytes(release)

    def test_transient_store_io_preserves_release_bytes(self):
        """Acceptance: transient IO faults on the store path never alter
        the persisted artefact — only delay it."""
        graph = generate_dblp_like(num_authors=40, seed=2)
        release = _disclose(graph)
        clean_store = ReleaseStore.in_memory()
        clean_store.save(release, key="r")

        flaky = ReleaseStore(FaultInjectingBackend(ReleaseStore.in_memory().backend, fail={"put": (1,)}))
        FAST_RETRY.call(lambda: flaky.save(release, key="r"), key="r", sleep=lambda _: None)
        assert flaky.backend.inner.get_document("r") == clean_store.backend.get_document("r")

    def test_delay_is_applied_without_failing(self):
        backend = FaultInjectingBackend(ReleaseStore.in_memory().backend, delay={"exists": 0.01})
        assert backend.exists("nope") is False
        assert backend.calls["exists"] == 1


class _CountingRunner:
    """Sweep runner that discloses, counts its invocations on disk, and
    fails one scripted combination until a flag file disappears."""

    def __init__(self, state_dir, fail_levels=None):
        self.state_dir = state_dir
        self.fail_levels = fail_levels

    def __call__(self, epsilon_g, levels):
        marker = self.state_dir / f"run-eps{epsilon_g}-l{levels}"
        count = int(marker.read_text()) if marker.is_file() else 0
        marker.write_text(str(count + 1))
        if self.fail_levels == levels and (self.state_dir / "failures-armed").is_file():
            raise EvaluationError(f"scripted failure at levels={levels}")
        graph = generate_dblp_like(num_authors=40, seed=7)
        config = DisclosureConfig(
            epsilon_g=epsilon_g, specialization=SpecializationConfig(num_levels=levels)
        )
        release = MultiLevelDiscloser(config=config, rng=7).disclose(graph)
        return {"digest": canonical_json_bytes(release.to_dict()).hex()[:32]}

    def invocations(self, epsilon_g, levels):
        marker = self.state_dir / f"run-eps{epsilon_g}-l{levels}"
        return int(marker.read_text()) if marker.is_file() else 0


class TestSweepResume:
    GRID = {"epsilon_g": [0.5], "levels": [3, 4, 5]}

    def test_interrupted_sweep_resumes_without_redisclosing(self, tmp_path):
        """Acceptance: resume re-runs only unfinished combinations; done
        rows come back verbatim from the journal."""
        runner = _CountingRunner(tmp_path, fail_levels=5)
        (tmp_path / "failures-armed").write_text("")
        sweep = ParameterSweep(runner, self.GRID, name="chaos")
        journal_path = tmp_path / "journal.json"

        with pytest.raises(SweepInterrupted):
            sweep.run(journal=journal_path, on_error="fail_fast")
        log = RunJournal(journal_path).log()
        done = [k for k in log.tasks if log.state(k) == "DONE"]
        assert len(done) == 2  # levels 3 and 4 completed before the stop
        first_digests = {key: log.row(key)["digest"] for key in done}

        # Clear the fault and resume with the same journal.
        (tmp_path / "failures-armed").unlink()
        result = sweep.run(journal=journal_path, on_error="fail_fast")
        assert len(result.rows) == 3
        for levels in (3, 4):
            assert runner.invocations(0.5, levels) == 1  # never re-disclosed
        assert runner.invocations(0.5, 5) == 2  # the failed one re-ran
        for key, digest in first_digests.items():
            resumed = RunJournal(journal_path).log().row(key)
            assert resumed["digest"] == digest  # rows reused verbatim

    def test_collect_errors_keeps_going_and_reports(self, tmp_path):
        runner = _CountingRunner(tmp_path, fail_levels=4)
        (tmp_path / "failures-armed").write_text("")
        sweep = ParameterSweep(runner, self.GRID, name="chaos")
        result = sweep.run(journal=tmp_path / "journal.json", on_error="collect_errors")
        assert len(result.rows) == 2
        assert len(result.errors) == 1
        assert result.errors[0]["type"] == "EvaluationError"
        key = combination_key({"epsilon_g": 0.5, "levels": 4})
        assert result.errors[0]["key"] == key

    def test_journal_refuses_a_different_sweep(self, tmp_path):
        runner = _CountingRunner(tmp_path)
        journal_path = tmp_path / "journal.json"
        ParameterSweep(runner, {"epsilon_g": [0.5], "levels": [3]}, name="a").run(
            journal=journal_path
        )
        other = ParameterSweep(runner, {"epsilon_g": [0.9], "levels": [3]}, name="a")
        with pytest.raises(EvaluationError, match="different run"):
            other.run(journal=journal_path)


class TestRunLog:
    """The event log is a journaled run's only state record; the journal
    file is a header naming the run."""

    GRID = {"epsilon_g": [0.5], "levels": [3, 4, 5]}

    def test_journal_holds_only_version_and_fingerprint(self, tmp_path):
        runner = _CountingRunner(tmp_path)
        sweep = ParameterSweep(runner, self.GRID, name="log")
        journal_path = tmp_path / "journal.json"
        result = sweep.run(journal=journal_path)
        assert json.loads(journal_path.read_text()) == {
            "version": 2,
            "fingerprint": sweep.fingerprint(),
        }
        log = RunJournal(journal_path).log()
        keys = [combination_key(params) for params in sweep.combinations()]
        assert [log.row(key) for key in keys] == result.rows

    def test_journal_bytes_do_not_change_between_waves(self, tmp_path):
        runner = _CountingRunner(tmp_path)
        journal_path = tmp_path / "journal.json"
        seen = []
        ParameterSweep(runner, self.GRID, name="log").run(
            journal=journal_path, progress=lambda line: seen.append(journal_path.read_bytes())
        )
        assert len(seen) == 4  # the schedule line, then one per wave
        assert set(seen) == {journal_path.read_bytes()}

    def test_a_different_snapshot_path_is_refused(self, tmp_path):
        runner = _CountingRunner(tmp_path)
        sweep = ParameterSweep(runner, self.GRID, name="log")
        journal_path = tmp_path / "journal.json"
        other = tmp_path / "elsewhere.jsonl"
        with pytest.raises(EvaluationError) as excinfo:
            sweep.run(journal=journal_path, snapshot=other)
        assert str(journal_path) in str(excinfo.value)
        assert str(other) in str(excinfo.value)
        assert runner.invocations(0.5, 3) == 0
        assert not journal_path.exists()

    def test_version_1_journal_resumes_without_rerunning_its_done_rows(self, tmp_path):
        runner = _CountingRunner(tmp_path)
        sweep = ParameterSweep(runner, self.GRID, name="log")
        journal_path = tmp_path / "journal.json"
        done_key = combination_key({"epsilon_g": 0.5, "levels": 3})
        done_row = {"epsilon_g": 0.5, "levels": 3, "digest": "recorded-before-upgrade"}
        journal_path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "fingerprint": sweep.fingerprint(),
                    "entries": {
                        done_key: {"status": "done", "row": done_row, "error": None},
                        combination_key({"epsilon_g": 0.5, "levels": 4}): {
                            "status": "running",
                            "row": None,
                            "error": None,
                        },
                    },
                },
                indent=2,
            )
        )
        # The stream an older run kept beside its journal: bare DONE events.
        (tmp_path / "journal.json.events.jsonl").write_text(
            f'{{"attempt":1,"key":{json.dumps(done_key)},"state":"DONE"}}\n'
        )
        result = sweep.run(journal=journal_path)
        assert runner.invocations(0.5, 3) == 0  # never re-disclosed
        assert runner.invocations(0.5, 4) == runner.invocations(0.5, 5) == 1
        assert result.rows[0] == done_row
        assert "entries" not in json.loads(journal_path.read_text())
        assert RunJournal(journal_path).log().row(done_key) == done_row


def _square_row(x):
    """Pure picklable sweep runner for orchestration-visibility tests."""
    return {"y": x * x}


class _Victim100Runner:
    """100-combination sweep runner: one real (tiny) disclosure per
    combination, persisted into a store — with one scripted victim
    combination that SIGKILLs its own worker on its first invocation.

    Invocation counts live as marker files under ``state_dir`` (written
    *before* the kill), so the test can prove a resumed sweep re-disclosed
    nothing that had already completed.  Picklable: plain paths only.
    """

    def __init__(self, state_dir, store_path, victim_eps=None):
        self.state_dir = Path(state_dir)
        self.store_path = str(store_path)
        self.victim_eps = victim_eps

    def __call__(self, epsilon_g):
        self.state_dir.mkdir(parents=True, exist_ok=True)
        marker = self.state_dir / f"run-eps{epsilon_g}"
        count = int(marker.read_text()) if marker.is_file() else 0
        marker.write_text(str(count + 1))
        if self.victim_eps == epsilon_g and count == 0:
            os._exit(17)  # die like a segfault: no cleanup, no journal entry
        graph = generate_dblp_like(num_authors=30, seed=13)
        config = DisclosureConfig(
            epsilon_g=epsilon_g, specialization=SpecializationConfig(num_levels=3)
        )
        release = MultiLevelDiscloser(config=config, rng=13).disclose(graph)
        key = f"rel-eps{epsilon_g}"
        ReleaseStore(self.store_path).save(release, key=key)
        return {"store_key": key}

    def invocations(self, epsilon_g) -> int:
        marker = self.state_dir / f"run-eps{epsilon_g}"
        return int(marker.read_text()) if marker.is_file() else 0


class TestSweepOrchestrationUnderChaos:
    """The PR's acceptance criterion: a 100-combination journaled sweep
    killed mid-flight resumes with zero re-disclosed completed
    combinations, its snapshot converges to consistent terminal states,
    and the stored releases are bit-identical to an uninterrupted
    same-seed run."""

    EPSILONS = [round(0.1 * i, 1) for i in range(1, 101)]
    VICTIM = 5.0  # the 50th combination: mid-flight, several waves in

    def test_100_combination_kill_resume_bit_identity(self, tmp_path):
        runner = _Victim100Runner(tmp_path / "state", tmp_path / "store.db", victim_eps=self.VICTIM)
        sweep = ParameterSweep(runner, {"epsilon_g": self.EPSILONS}, name="chaos-100")
        journal_path = tmp_path / "journal.json"
        snapshot_path = tmp_path / "journal.json.events.jsonl"

        # Phase 1: the victim combination SIGKILLs its worker; with a zero
        # rebuild budget the sweep aborts mid-flight like a real crash.
        pool = ProcessExecutor(max_workers=4, max_pool_rebuilds=0)
        try:
            with pytest.raises(WorkerCrashError):
                sweep.run(
                    scheduler=SweepScheduler(executor=pool, workers=4, budget=4),
                    journal=journal_path,
                    snapshot=snapshot_path,
                )
        finally:
            pool.close()

        interrupted = RunJournal(journal_path).log()
        done_keys = [
            key for key in interrupted.tasks if interrupted.state(key) == "DONE"
        ]
        assert 0 < len(done_keys) < 100  # genuinely mid-flight
        from repro.evaluation.snapshot import SweepSnapshot

        mid = SweepSnapshot.open(snapshot_path)
        assert not mid.is_converged()  # the killed wave is still RUNNING
        assert mid.counts()["RUNNING"] > 0

        # Phase 2: resume with the same journal + snapshot stream.
        result = sweep.run(
            scheduler=SweepScheduler(executor="process", workers=4, budget=4),
            journal=journal_path,
            snapshot=snapshot_path,
        )
        assert len(result.rows) == 100

        # Snapshot converged: every task terminal, nothing stuck mid-state.
        snap = result.snapshot
        counts = snap.counts()
        assert snap.is_converged()
        assert counts["DONE"] == 100
        assert counts["RUNNING"] == counts["RETRYING"] == counts["PENDING"] == 0
        # The victim carries its crash history: attempt 2, not a silent gap.
        victim_key = combination_key({"epsilon_g": self.VICTIM})
        assert snap.attempt(victim_key) >= 2

        # Zero re-disclosure: every combination journaled done before the
        # kill ran exactly once across both phases.
        for key in done_keys:
            eps = json.loads(key)["epsilon_g"]
            assert runner.invocations(eps) == 1, f"re-disclosed eps={eps}"

        # Bit-identity: an uninterrupted same-seed sweep into a fresh store
        # produces byte-for-byte the same artefacts for all 100 keys.
        clean_runner = _Victim100Runner(tmp_path / "state-clean", tmp_path / "store-clean.db")
        ParameterSweep(clean_runner, {"epsilon_g": self.EPSILONS}, name="chaos-100").run(
            scheduler=SweepScheduler(executor="process", workers=4, budget=4)
        )
        disturbed_store = ReleaseStore(tmp_path / "store.db")
        clean_store = ReleaseStore(tmp_path / "store-clean.db")
        assert sorted(disturbed_store.keys()) == sorted(clean_store.keys())
        for key in clean_store.keys():
            assert disturbed_store.backend.get_document(key) == clean_store.backend.get_document(
                key
            ), f"store artefact differs for {key}"

    def test_in_run_pool_rebuild_surfaces_as_retrying(self, tmp_path):
        """A worker death the pool recovers *within* the run must show up in
        the snapshot as RETRYING history — never a silent gap."""
        plan = FaultPlan({0: (KillWorkerFault(attempts=(1,)),)})
        inner = ProcessExecutor(max_workers=2)  # default rebuild budget: recovers
        chaos = FaultInjectingExecutor(inner, plan, tmp_path / "faults")
        sweep = ParameterSweep(_square_row, {"x": [1, 2, 3, 4]}, name="retry-vis")
        snapshot_path = tmp_path / "journal.json.events.jsonl"
        try:
            result = sweep.run(
                scheduler=SweepScheduler(executor=chaos, workers=2, budget=2),
                journal=tmp_path / "journal.json",
                snapshot=snapshot_path,
            )
        finally:
            chaos.close()
        assert [row["y"] for row in result.rows] == [1, 4, 9, 16]
        snap = result.snapshot
        assert snap.is_converged() and snap.counts()["DONE"] == 4
        # The fault plan kills wave-local task 0 of each map call: the event
        # stream records the RETRYING transition and the bumped attempt.
        stream = snapshot_path.read_text()
        assert '"state":"RETRYING"' in stream
        assert any(snap.attempt(key) >= 2 for key in snap.tasks)
