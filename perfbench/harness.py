"""Set-up, the closed measurement loop, and the end-to-end and per-layer metrics."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import sqlite3
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

import numpy as np

from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, GateFailure, LoopResult, Workload, install_layer_tracing

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(samples: List[float], fraction: float) -> float:
    """Inclusive-method percentile (``fraction`` in (0, 1))."""
    if len(samples) == 1:
        return samples[0]
    return quantiles(samples, n=100, method="inclusive")[round(fraction * 100) - 1]


def measure(
    workload: Workload,
    seconds: float,
    start_index: int = 0,
    tracer: Optional[Tracer] = None,
) -> LoopResult:
    """Run the workload's closed loops for ``seconds`` and collect latencies.

    Each client runs on its own thread when there is more than one.  A loop
    runs at least one operation and stops at the first operation boundary
    after the deadline.  An operation that raises, or whose gate
    fails, counts as failed and contributes no latency sample.

    A single-client workload gets the allowed CPUs in ``workload.cpus`` for
    the length of the loop, so that it can take turns on them
    (:meth:`Workload.use_cpu`).
    """
    deadline = time.perf_counter() + seconds
    op_ids = itertools.count(1)
    results = [LoopResult() for _ in range(workload.clients)]

    def loop(client: int) -> None:
        result = results[client]
        index = start_index
        while index == start_index or time.perf_counter() < deadline:
            result.attempted += 1
            payload = workload.prepare(client, index)
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op", op=next(op_ids)):
                        output = workload.op(client, index, payload)
                else:
                    output = workload.op(client, index, payload)
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    with tracer.paused():
                        workload.check(client, index, output)
                else:
                    workload.check(client, index, output)
            except GateFailure as error:
                result.failed += 1
                result.gate_failures += 1
                result.errors.append(f"gate: {error}")
            except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
                result.failed += 1
                result.errors.append(f"{type(error).__name__}: {error}")
            else:
                result.samples.append(elapsed)
            index += 1
        result.next_index = index

    started = time.perf_counter()
    if workload.clients == 1:
        workload.cpus = sorted(os.sched_getaffinity(0))
        try:
            loop(0)
        finally:
            os.sched_setaffinity(0, workload.cpus)
            workload.cpus = []
    else:
        threads = [threading.Thread(target=loop, args=(client,)) for client in range(workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    total = LoopResult(seconds=time.perf_counter() - started)
    for result in results:
        total.extend(result)
    total.next_index = max(result.next_index for result in results)
    return total


def children_peak_kb() -> int:
    """Largest peak RSS among the reaped children of this process (KiB).

    The figure survives ``exec``, so a run records it at its start and
    counts children only when the run's own children raised it.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(workload: Workload, children_before: int) -> float:
    """Largest peak RSS of one process doing the workload's work (MiB).

    That is the server process when the workload runs one.  Otherwise it is
    this process or the largest pool worker it reaped, whichever is larger:
    a forked worker's figure already holds the pages it shares with this
    process, so the two are not added.
    """
    server = workload.peak_rss_kb()
    if server is not None:
        return server / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = children_peak_kb()
    return max(own, children if children > children_before else 0) / 1024.0


def _git_revision(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path) -> Dict[str, object]:
    """Host and source identity recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sqlite": sqlite3.sqlite_version,
        "git_revision": _git_revision(root),
        "src_sha256": digest.hexdigest(),
    }


def set_up(name: str, seed: int, workdir: Path, in_process: bool):
    """Set the workload up ``SETUP_REPEATS`` times from scratch; keep the last.

    Returns the workload, the set-up times and a :class:`LoopResult` counting
    every warm-up operation of every set-up.
    """
    timings = []
    warmup = LoopResult()
    workload = None
    for repeat in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[name](seed, workdir / f"setup-{repeat}", in_process=in_process)
        start = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        timings.append(time.perf_counter() - start)
        warmup.extend(workload.warmup)
    return workload, timings, warmup


def finish(workload: Workload, loop: LoopResult) -> None:
    """Run the end-of-run gates; a failure counts as one more failed op."""
    try:
        workload.finish()
    except GateFailure as error:
        loop.attempted += 1
        loop.failed += 1
        loop.gate_failures += 1
        loop.errors.append(f"gate: {error}")


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """An untraced run: the four end-to-end metrics."""
    children_before = children_peak_kb()
    workload, setups, warmup = set_up(name, seed, workdir, in_process=False)
    try:
        loop = measure(workload, seconds)
        finish(workload, loop)
    finally:
        workload.close()
    loop.extend(warmup)
    metrics = {"setup_s": (median(setups), "s")}
    if loop.samples:
        metrics["op_p50_ms"] = (1000 * median(loop.samples), "ms")
        metrics["op_p90_ms"] = (1000 * percentile(loop.samples, 0.9), "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(workload, children_before), "MiB")
    info = dict(workload.info(), setup_s_runs=setups, samples=len(loop.samples), seconds=loop.seconds)
    return _result(loop, metrics, info)


def traced(name: str, seed: int, seconds: float, workdir: Path, trace_path: Path) -> dict:
    """A traced run: half untraced, half with every layer wrapped."""
    workload, _, warmup = set_up(name, seed, workdir, in_process=True)
    tracer = Tracer()
    try:
        plain = measure(workload, seconds / 2)
        workload.tracer = tracer
        workload.begin_trace(tracer)
        install_layer_tracing(tracer)
        try:
            loop = measure(workload, seconds / 2, start_index=plain.next_index, tracer=tracer)
        finally:
            tracer.restore()
        specific = workload.layer_metrics(tracer, loop.attempted)
        finish(workload, loop)
    finally:
        workload.close()
    tracer.write(trace_path)
    metrics = layer_metrics(tracer, loop, plain)
    metrics.update(specific)
    units = per_layer_units()
    total = LoopResult()
    for part in (warmup, plain, loop):
        total.extend(part)
    info = {"samples": len(loop.samples), "untraced_samples": len(plain.samples), "trace_file": str(trace_path)}
    return _result(total, {key: (value, units[key]) for key, value in metrics.items()}, info)


def per_layer_units() -> Dict[str, str]:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def layer_metrics(tracer: Tracer, loop: LoopResult, plain: LoopResult) -> Dict[str, float]:
    """Per-layer metrics of the traced loop, per operation unless noted."""
    ops = {span.op for span in tracer.spans if span.name == "op"}
    count = max(1, len(ops))
    in_ops = tracer.layer_totals(ops)
    everywhere = tracer.layer_totals()
    counters = tracer.counters

    def self_ms(*names: str) -> float:
        return 1000 * sum(in_ops.get(name, (0, 0, 0))[1] for name in names) / count

    def calls(name: str) -> float:
        return in_ops.get(name, (0, 0, 0))[2] / count

    def per_call_ms(name: str) -> float:
        total, _, number = everywhere.get(name, (0, 0, 0))
        return 1000 * total / number if number else 0.0

    op_ms = 1000 * in_ops.get("op", (0, 0, 0))[0] / count
    fingerprint_ms = self_ms("core.fingerprint_partition", "core.fingerprint_answers")
    specialize_ms = self_ms("grouping.specialize")
    fingerprint_calls = counters["core.fingerprint_calls"]
    traced_p50 = median(loop.samples) if loop.samples else 0.0
    plain_p50 = median(plain.samples) if plain.samples else 0.0
    return {
        "grouping.specialize_ms": specialize_ms,
        "grouping.groups": counters["grouping.groups"] / count,
        "grouping.specialize_share": specialize_ms / op_ms if op_ms else 0.0,
        "core.fingerprint_ms": fingerprint_ms,
        "core.fingerprint_share": fingerprint_ms / op_ms if op_ms else 0.0,
        "core.fingerprint_calls": fingerprint_calls / count,
        "core.fingerprint_memo_hits": counters["core.fingerprint_memo_hits"] / count,
        "core.fingerprint_memo_hit_ratio": _ratio(counters["core.fingerprint_memo_hits"], fingerprint_calls),
        "core.compile_ms": self_ms("core.compile"),
        "core.calibrate_ms": self_ms("core.calibrate"),
        "core.perturb_ms": self_ms("core.perturb"),
        "core.assemble_ms": self_ms("core.assemble"),
        "core.refresh_ms": self_ms("core.refresh"),
        "core.refresh.levels_reperturbed": counters["core.refresh.levels_reperturbed"] / count,
        "core.refresh.levels_reused": counters["core.refresh.levels_reused"] / count,
        "core.refresh.reuse_ratio": _ratio(
            counters["core.refresh.levels_reused"],
            counters["core.refresh.levels_reused"] + counters["core.refresh.levels_reperturbed"],
        ),
        "graphs.arrays_ms": self_ms("graphs.compile", "graphs.delta_compile"),
        "graphs.full_compiles": calls("graphs.compile"),
        "graphs.delta_compiles": calls("graphs.delta_compile"),
        "queries.evaluate_ms": self_ms("queries.evaluate_batch"),
        "execution.map_ms": self_ms("execution.map"),
        "execution.pool_start_ms": counters["execution.pool_start_ms"] / count,
        "execution.busy_ms": counters["execution.busy_ms"] / count,
        "execution.utilization": 0.0,
        "execution.retries": counters["execution.retries"] / count,
        "evaluation.sweep_overhead_ms": counters["evaluation.sweep_overhead_ms"] / count,
        "evaluation.journal_bytes": counters["evaluation.journal_bytes"] / count,
        "evaluation.snapshot_events": counters["evaluation.snapshot_events"] / count,
        "store.save_ms": self_ms("store.save", "store.backend_put"),
        "store.bytes_written": counters["store.bytes_written"] / count,
        "store.load_ms": per_call_ms("store.load"),
        "store.cache_hit_ratio": 0.0,
        "serving.view_ms": 0.0,
        "serving.metadata_ms": 0.0,
        "serving.view_for_ms": per_call_ms("serving.view_for"),
        "serving.respcache_hit_ratio": 0.0,
        "serving.respcache_invalidations": 0.0,
        "serving.response_bytes": counters["serving.response_bytes"] / count,
        "serving.shed": 0.0,
        "bench.ops_attempted": loop.attempted,
        "bench.ops_failed": loop.failed,
        "bench.ops_per_s": len(plain.samples) / plain.seconds if plain.seconds else 0.0,
        "bench.span_coverage": tracer.coverage("op"),
        "bench.op_mean_ms": op_ms,
        "bench.tracing_overhead": traced_p50 / plain_p50 if plain_p50 else 0.0,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _result(loop: LoopResult, metrics: Dict[str, tuple], info: Dict[str, object]) -> dict:
    if loop.errors:
        for error in loop.errors[:5]:
            print(f"failed op: {error}", file=sys.stderr)
    return {
        "correct": loop.gate_failures == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": dict(info, failed_gates=loop.gate_failures, first_errors=loop.errors[:5]),
    }
