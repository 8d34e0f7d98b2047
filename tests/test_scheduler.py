"""Worker-budget checks, process-pool recovery, and the sweep scheduler.

The budget tests lock the ``ValidationError`` message shapes (the CLI shows
them verbatim), the recovery tests hold the process executor — the sweep's
crash-surviving backend — to its fail-fast and rebuild-announcing contract,
and the scheduler tests prove the negotiated plan reaches the snapshot.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.datasets.dblp_like import generate_dblp_like
from repro.evaluation.sweep import ParameterSweep
from repro.exceptions import (
    TaskTimeoutError,
    TransientError,
    ValidationError,
    WorkerCrashError,
)
from repro.execution import (
    ProcessExecutor,
    SerialExecutor,
    SweepScheduler,
    ThreadExecutor,
    default_max_workers,
    executor_scope,
)
from repro.execution.faults import FaultInjectingExecutor, FaultPlan, KillWorkerFault
from repro.grouping.specialization import SpecializationConfig
from repro.utils.serialization import canonical_json_bytes


def _square(task):
    return task * task


def _boom(task):
    raise TransientError(f"boom {task}")


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _pure_runner(x):
    return {"y": x * x}


def _release_bytes(seed):
    """Canonical bytes of one whole disclosure (a picklable executor task)."""
    graph = generate_dblp_like(num_authors=50, seed=1)
    config = DisclosureConfig(epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4))
    release = MultiLevelDiscloser(config=config, rng=seed).disclose(graph)
    return canonical_json_bytes(release.to_dict())


class TestWorkerBudget:
    """The worker budget, as :class:`SweepScheduler` checks it at construction."""

    def test_defaults_to_cpu_count(self):
        assert SweepScheduler().plan["total"] == default_max_workers()

    def test_rejects_non_positive_total(self):
        with pytest.raises(ValidationError, match="worker budget must be >= 1"):
            SweepScheduler(budget=0)

    def test_resolve_accepts_int_budget_or_none(self):
        assert SweepScheduler(budget=3).plan["total"] == 3
        assert SweepScheduler(budget=None).plan["total"] >= 1

    def test_plan_defaults_serial_to_one_worker(self):
        plan = SweepScheduler(budget=4).plan
        assert plan == {"executor": "serial", "total": 4, "outer_workers": 1}

    def test_plan_pool_executor_takes_the_budget_by_default(self):
        plan = SweepScheduler(executor="process", budget=4).plan
        assert plan["outer_workers"] == 4

    def test_plan_from_executor_instance_uses_its_width(self):
        pool = ThreadExecutor(max_workers=3)
        try:
            plan = SweepScheduler(executor=pool, budget=4).plan
            assert plan["executor"] == "thread" and plan["outer_workers"] == 3
        finally:
            pool.close()

    def test_workers_over_budget_is_a_clear_validation_error(self):
        """No silent oversubscription — the message names the request, the
        budget, and both remedies."""
        with pytest.raises(ValidationError) as excinfo:
            SweepScheduler(executor="process", workers=5, budget=2)
        message = str(excinfo.value)
        assert "--workers 5" in message
        assert "exceeds the worker budget of 2 slot(s)" in message
        assert "raise --worker-budget" in message

    def test_serial_with_workers_points_at_pool_executors(self):
        with pytest.raises(ValidationError, match="one combination at a time"):
            SweepScheduler(executor="serial", workers=2, budget=4)

    def test_plan_dict_is_snapshot_ready(self):
        plan = SweepScheduler(executor="thread", workers=2, budget=4).plan
        assert plan == {
            "executor": "thread",
            "total": 4,
            "outer_workers": 2,
        }


class TestExecutorScopeBudget:
    def test_scope_without_budget_is_unchanged(self):
        with executor_scope("thread", max_workers=64) as pool:
            assert pool.max_workers == 64


class TestProcessExecutorRecovery:
    """The sweep's crash-surviving executor: reusable, fail-fast on task
    errors and timeouts, and announcing every pool rebuild."""

    def test_empty_map(self):
        with ProcessExecutor(max_workers=2) as pool:
            assert pool.map(_square, []) == []

    def test_map_preserves_order_and_matches_serial(self):
        tasks = list(range(12))
        with ProcessExecutor(max_workers=3) as pool:
            assert pool.map(_square, tasks) == SerialExecutor().map(_square, tasks)

    def test_reusable_across_maps(self):
        with ProcessExecutor(max_workers=2) as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]
            assert pool.map(_square, [3]) == [9]

    def test_task_exception_propagates(self):
        with ProcessExecutor(max_workers=2) as pool:
            with pytest.raises(TransientError, match="boom"):
                pool.map(_boom, [1, 2])

    def test_task_timeout_raises(self):
        with ProcessExecutor(max_workers=2) as pool:
            with pytest.raises(TaskTimeoutError):
                pool.map(_sleepy, [5.0], timeout=0.3)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValidationError):
            ProcessExecutor(max_workers=0)
        with pytest.raises(ValidationError):
            ProcessExecutor(max_pool_rebuilds=-1)

    def test_killed_worker_is_recovered_and_announced(self, tmp_path):
        """A SIGKILL'd worker's tasks are resubmitted (results identical to
        serial) and the pool rebuild is announced through ``on_retry``."""
        plan = FaultPlan({1: (KillWorkerFault(attempts=(1,)),)})
        inner = ProcessExecutor(max_workers=2)
        chaos = FaultInjectingExecutor(inner, plan, tmp_path)
        retried = []
        chaos.on_retry = retried.append
        try:
            assert chaos.map(_square, [3, 4, 5, 6]) == [9, 16, 25, 36]
        finally:
            chaos.close()
        assert chaos.ledger.attempts("map-1", 1) == 2  # killed, then re-ran
        assert any(1 in indices for indices in retried)

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

    def test_disclosure_parity_with_serial(self):
        """Disclosures run in process workers are bit-identical to serial ones."""
        with ProcessExecutor(max_workers=2) as pool:
            assert pool.map(_release_bytes, [9, 10]) == [_release_bytes(9), _release_bytes(10)]


class TestSweepScheduler:
    def test_scope_yields_executor_sized_to_the_plan(self):
        scheduler = SweepScheduler(executor="thread", workers=2, budget=4)
        with scheduler.scope() as pool:
            assert pool.name == "thread"
            assert pool.max_workers == 2

    def test_invalid_request_fails_at_construction(self):
        with pytest.raises(ValidationError, match="exceeds the worker budget"):
            SweepScheduler(executor="process", workers=9, budget=2)

    def test_accepts_executor_instances(self, tmp_path):
        chaos = FaultInjectingExecutor(
            SerialExecutor(), FaultPlan(), tmp_path
        )
        scheduler = SweepScheduler(executor=chaos, budget=4)
        assert scheduler.plan["executor"] == "chaos-serial"
        with scheduler.scope() as pool:
            assert pool is chaos  # instances stay caller-owned

    def test_plan_lands_in_the_sweep_snapshot(self):
        scheduler = SweepScheduler(executor="serial", budget=3)
        sweep = ParameterSweep(_pure_runner, {"x": [1, 2, 3]})
        result = sweep.run(scheduler=scheduler, snapshot=None, progress=lambda line: None)
        assert result.snapshot is not None
        assert result.snapshot.plan == scheduler.plan
        assert result.snapshot.is_converged()
        assert [row["y"] for row in result.rows] == [1, 4, 9]

    def test_unscheduled_journaled_run_records_the_serial_plan(self, tmp_path):
        sweep = ParameterSweep(_pure_runner, {"x": [1, 2]})
        result = sweep.run(journal=tmp_path / "journal.json")
        assert result.snapshot.plan == SweepScheduler().plan
        assert result.snapshot.plan["executor"] == "serial"
        assert result.snapshot.plan["outer_workers"] == 1
