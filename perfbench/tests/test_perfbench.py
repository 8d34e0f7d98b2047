"""Fast checks of the benchmark itself: output contract, gates and tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    """One set-up per run keeps these tests short."""
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def _units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _emitted(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


#: Failures of known program defects that the held-out ``serve`` and
#: ``sweep_fresh`` workloads count (see README.md); any other failure fails
#: the test.
KNOWN_DEFECTS = ("AST constructor recursion depth mismatch", "database is locked")


def _only_known_failures(name, result):
    if name not in ("serve", "sweep_fresh"):
        return result["correct"] and result["failed"] == 0
    known = all(any(defect in error for defect in KNOWN_DEFECTS) for error in result["info"]["first_errors"])
    # The lock race fails an op; serve's wrongful quarantine answers a
    # non-200, which fails a gate.
    return known and (result["correct"] or name == "serve")


def test_declared_workloads_exist():
    assert {workload["name"] for workload in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_exactly_the_declared_metrics(name, tmp_path):
    # A few sweeps, so one lost to the known lock race still leaves samples.
    plain = harness.end_to_end(name, 7, 2.5 if name.startswith("sweep") else 0.3, tmp_path / "plain")
    assert _only_known_failures(name, plain)
    assert _emitted(plain) == _units("end_to_end")
    assert all(metric["value"] > 0 for metric in plain["metrics"].values())

    traced = harness.traced(name, 7, 0.6, tmp_path / "traced", tmp_path / "trace.jsonl")
    assert _only_known_failures(name, traced)
    assert _emitted(traced) == _units("per_layer")
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


def test_refresh_trace_shows_no_specialization_and_full_memo(tmp_path):
    result = harness.traced("refresh", 3, 1.0, tmp_path, tmp_path / "trace.jsonl")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["grouping.specialize_ms"] == 0
    assert metrics["core.fingerprint_memo_hit_ratio"] == 1.0
    assert metrics["core.refresh.reuse_ratio"] == 0.5
    assert metrics["bench.span_coverage"] >= 0.95


def _one_op(workload):
    """Measure one operation (a loop always runs at least one)."""
    return harness.measure(workload, 0)


def _set_up(name, tmp_path, in_process=False):
    workload = workloads.WORKLOADS[name](5, tmp_path, in_process=in_process)
    workload.setup()
    return workload


def test_disclose_gate_catches_a_wrong_digest(tmp_path):
    workload = _set_up("disclose", tmp_path)
    try:
        workload.digests[0] = "0" * 64
        loop = _one_op(workload)
    finally:
        workload.close()
    assert (loop.attempted, loop.failed, loop.gate_failures, loop.samples) == (1, 1, 1, [])


def test_refresh_gate_catches_a_wrong_release(tmp_path, monkeypatch):
    workload = _set_up("refresh", tmp_path)
    try:
        refresh = workload.discloser.refresh

        def tampered(*args, **kwargs):
            result = refresh(*args, **kwargs)
            level = result.release.level_releases[0]
            name = next(iter(level.answers))
            level.answers[name] = {key: value + 1.0 for key, value in level.answers[name].items()}
            return result

        monkeypatch.setattr(workload.discloser, "refresh", tampered)
        loop = _one_op(workload)
        harness.finish(workload, loop)
    finally:
        workload.close()
    assert loop.gate_failures == 1 and loop.failed == 1


def _flip_first_byte(status, body):
    return status, bytes([body[0] ^ 1]) + body[1:]


def _server_error(status, body):
    return 500, body


@pytest.mark.parametrize("fault", [_flip_first_byte, _server_error])
def test_serve_gate_catches_a_planted_fault(fault, tmp_path, monkeypatch):
    workload = _set_up("serve", tmp_path, in_process=True)
    try:
        fetch = workload.fetch

        def faulty(client, route):
            status, body = fetch(client, route)
            return fault(status, body) if "/views/" in route else (status, body)

        monkeypatch.setattr(workload, "fetch", faulty)
        loop = harness.measure(workload, 0.2)
    finally:
        workload.close()
    assert loop.gate_failures >= 1
    assert len(loop.samples) == loop.attempted - loop.failed


def test_warm_up_counts_every_operation(tmp_path):
    workload = _set_up("disclose", tmp_path)
    workload.close()
    assert (workload.warmup.attempted, workload.warmup.failed) == (workloads.DISCLOSE_CYCLE, 0)


def test_sweep_gate_catches_a_wrong_row(tmp_path):
    workload = _set_up("sweep", tmp_path)
    try:
        workload.reference[0] = dict(workload.reference[0], digest="0" * 64)
        loop = _one_op(workload)
    finally:
        workload.close()
    assert (loop.attempted, loop.failed, loop.gate_failures) == (1, 1, 1)


@pytest.mark.parametrize("name, created", [("sweep", True), ("sweep_fresh", False)])
def test_sweep_store_is_created_before_the_sweep_except_on_sweep_fresh(name, created, tmp_path):
    workload = workloads.WORKLOADS[name](5, tmp_path)
    opdir = workload.prepare(0, 1)
    assert (opdir / "sweep.db").is_file() == created


def test_use_cpu_takes_turns_only_in_a_measured_loop(tmp_path):
    seen = []

    class Turns(workloads.Workload):
        def op(self, client, index, payload):
            self.use_cpu(index)
            seen.append(os.sched_getaffinity(0))

    allowed = os.sched_getaffinity(0)
    workload = Turns(1, tmp_path)
    workload.use_cpu(1)
    assert os.sched_getaffinity(0) == allowed
    for start in (0, 1):
        harness.measure(workload, 0, start_index=start)
        assert os.sched_getaffinity(0) == allowed
    if len(allowed) > 1:
        assert [len(cpus) for cpus in seen] == [1, 1] and seen[0] != seen[1]


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("op", op=1):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    totals = tracer.layer_totals({1})
    outer_total, outer_self, _ = totals["outer"]
    inner_total, _, _ = totals["inner"]
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert {span.op for span in tracer.spans} == {1}


def test_wrap_restores_the_original():
    class Layer:
        def work(self):
            return 42

        @classmethod
        def build(cls):
            return cls

    original = Layer.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(Layer, "work", "layer.work")
    tracer.wrap(Layer, "build", "layer.build")
    assert Layer().work() == 42 and Layer.build() is Layer
    tracer.restore()
    assert Layer.__dict__["work"] is original
    assert isinstance(Layer.__dict__["build"], classmethod)
    assert [span.name for span in tracer.spans] == ["layer.work", "layer.build"]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disclose", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_zipf_exponent_puts_the_stated_share_past_the_head():
    exponent = workloads.zipf_exponent(128, 64, 0.2)
    weights = 1.0 / np.arange(1, 129) ** exponent
    assert weights[64:].sum() / weights.sum() == pytest.approx(0.2)
