"""The benchmark workloads: disclose, refresh, serve, sweep and sweep_fresh.

Every workload is a closed loop driven from one process.  It builds all of
its inputs from the workload seed in :meth:`Workload.setup`, which also runs
one untimed warm-up pass over the workload's operation cycle, so two runs
with the same seed do identical work.  :meth:`Workload.op` is the timed
operation; :meth:`Workload.check` is its correctness gate, which runs after
the timer stops and raises :class:`GateFailure` on a wrong output.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    AccessPolicy,
    DisclosureConfig,
    MultiLevelDiscloser,
    ReleaseStore,
    generate_dblp_like,
    verify_release,
)
from repro.core import pipeline
from repro.core.sqlite_backend import SqliteBackend
from repro.evaluation.sweep import ParameterSweep
from repro.exceptions import ReleaseIntegrityError
from repro.execution.executors import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.execution.scheduler import SweepScheduler
from repro.graphs.arrays import GraphArrays
from repro.grouping.specialization import SpecializationConfig
from repro.queries.workload import QueryWorkload
from repro.serving.client import http_get_response
from repro.serving.respcache import ResponseCache
from repro.serving.server import create_server
from repro.utils.serialization import canonical_json_bytes


class GateFailure(Exception):
    """An operation completed but its output is wrong."""


class OpFailure(Exception):
    """An operation did not complete (a sweep combination recorded an error)."""


@dataclass
class LoopResult:
    """What one measured loop produced."""

    samples: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gate_failures: int = 0
    errors: List[str] = field(default_factory=list)
    seconds: float = 0.0
    next_index: int = 0

    def extend(self, other: "LoopResult") -> None:
        self.samples.extend(other.samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.gate_failures += other.gate_failures
        self.errors.extend(other.errors)


def release_digest(release, ignore_provenance: bool = False) -> str:
    """SHA-256 of a release's canonical JSON form."""
    document = release.to_dict()
    if ignore_provenance:
        document.pop("provenance", None)
    return hashlib.sha256(canonical_json_bytes(document)).hexdigest()


def derived_seeds(seed: int, label: str, count: int) -> List[int]:
    """``count`` seeds derived from the workload seed and a label."""
    rng = np.random.default_rng([int(seed), int.from_bytes(label.encode(), "little") % (2**32)])
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


class Workload:
    """One closed-loop workload; subclasses fill in the hooks."""

    name = "workload"
    #: Closed-loop clients, each on its own thread when more than one.
    clients = 1

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        #: Run every part of the workload inside this process (traced runs).
        self.in_process = in_process
        #: Set by the harness for the traced part of a run.
        self.tracer = None
        #: Every warm-up operation and end-of-warm-up gate, with its outcome.
        self.warmup = LoopResult()
        self._warmup_lock = threading.Lock()
        #: The CPUs a measured single-client loop may take turns on.
        self.cpus: List[int] = []

    def setup(self) -> None:
        """Build the inputs and run the untimed warm-up pass."""

    def prepare(self, client: int, index: int) -> Any:
        """Untimed per-operation input preparation."""
        return None

    def op(self, client: int, index: int, payload: Any) -> Any:
        """One timed operation."""
        raise NotImplementedError

    def check(self, client: int, index: int, output: Any) -> None:
        """The operation's correctness gate (raises :class:`GateFailure`)."""

    def finish(self) -> None:
        """End-of-run correctness gates (raises :class:`GateFailure`)."""

    def begin_trace(self, tracer) -> None:
        """Called as the traced part of a run starts."""

    def layer_metrics(self, tracer, op_count: int) -> Dict[str, float]:
        """Workload-specific per-layer metrics from the traced part of a run."""
        return {}

    def info(self) -> Dict[str, object]:
        """Workload-specific figures for the line printed before the result."""
        return {}

    def peak_rss_kb(self) -> Optional[int]:
        """Peak RSS of the process doing the work, when it is not this one or its pool."""
        return None

    def close(self) -> None:
        """Release every process, connection and file the workload opened."""

    def warm(self, step: Callable[[], Any]) -> None:
        """Run one untimed warm-up step and count it like a measured operation.

        A step that raises counts as failed; a :class:`GateFailure` also
        counts as a wrong output.
        """
        outcome = LoopResult(attempted=1)
        try:
            step()
        except GateFailure as error:
            outcome.failed = outcome.gate_failures = 1
            outcome.errors.append(f"warm-up gate: {error}")
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            outcome.failed = 1
            outcome.errors.append(f"warm-up {type(error).__name__}: {error}")
        with self._warmup_lock:
            self.warmup.extend(outcome)

    def run_once(self, client: int, index: int) -> None:
        """Prepare, run and check one warm-up operation."""
        self.warm(lambda: self.check(client, index, self.op(client, index, self.prepare(client, index))))

    def use_cpu(self, turn: int) -> None:
        """Move this thread to the ``turn``-th of :attr:`cpus`, cyclically.

        On a shared host each CPU can slow down for seconds at a time,
        independently of the others.  A single-threaded run that the
        scheduler leaves on one CPU measures that CPU's slow spells, and its
        median jumps with how much of the run they covered.  Taking turns
        samples every CPU equally in every run.  Only workloads that start
        no processes take turns: a child would inherit the one-CPU affinity.
        """
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})

    def count(self, name: str, amount: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)


# ----------------------------------------------------------------------
# Layer wrappers shared by every traced run
# ----------------------------------------------------------------------
def _count_groups(tracer):
    def after(result, stage, context):
        hierarchy = context.hierarchy
        if hierarchy is not None:
            groups = sum(hierarchy.partition_at(level).num_groups() for level in hierarchy.level_indices())
            tracer.count("grouping.groups", groups)

    return after


def _count_fingerprint_memo(tracer):
    def before(partition):
        tracer.count("core.fingerprint_calls")
        if getattr(partition, "_content_digest", None) is not None:
            tracer.count("core.fingerprint_memo_hits")

    return before


def _count_bytes(tracer):
    def before(backend, key, document, answers):
        tracer.count("store.bytes_written", len(document) + len(answers))

    return before


def install_layer_tracing(tracer) -> None:
    """Wrap the program's public layer entry points with spans."""
    wrap = tracer.wrap
    wrap(pipeline.SpecializeStage, "run", "grouping.specialize", after=_count_groups(tracer))
    wrap(pipeline.CompileStage, "run", "core.compile")
    wrap(pipeline.CalibrateStage, "run", "core.calibrate")
    wrap(pipeline.PerturbStage, "run", "core.perturb")
    wrap(pipeline.AssembleStage, "run", "core.assemble")
    wrap(MultiLevelDiscloser, "refresh", "core.refresh")
    wrap(pipeline, "fingerprint_partition", "core.fingerprint_partition",
         before=_count_fingerprint_memo(tracer))
    wrap(pipeline, "fingerprint_answers", "core.fingerprint_answers")
    wrap(GraphArrays, "compile", "graphs.compile")
    wrap(GraphArrays, "delta_compile", "graphs.delta_compile")
    wrap(QueryWorkload, "evaluate_batch", "queries.evaluate_batch")
    for executor in (SerialExecutor, ThreadExecutor, ProcessExecutor):
        wrap(executor, "map", "execution.map")
    wrap(ReleaseStore, "save", "store.save")
    wrap(ReleaseStore, "load", "store.load")
    wrap(SqliteBackend, "put", "store.backend_put", before=_count_bytes(tracer))
    wrap(AccessPolicy, "view_for", "serving.view_for")
    wrap(ResponseCache, "get", "serving.respcache_get")


# ----------------------------------------------------------------------
# disclose
# ----------------------------------------------------------------------
#: Authors in each disclosed graph (the repository's ``tiny`` dblp scale).
DISCLOSE_AUTHORS = 300
#: Graph seeds and store keys cycle through this many values.
DISCLOSE_CYCLE = 8


class DiscloseWorkload(Workload):
    """A fresh paper-default discloser per operation, saved into SQLite."""

    name = "disclose"

    def setup(self) -> None:
        self.seeds = derived_seeds(self.seed, "disclose", DISCLOSE_CYCLE)
        self.graphs = [generate_dblp_like(num_authors=DISCLOSE_AUTHORS, seed=s) for s in self.seeds]
        self.store = ReleaseStore(self.workdir / "disclose.db")
        #: Each seed's release digest, recorded by its warm-up operation.
        self.digests: Dict[int, str] = {}
        for index in range(DISCLOSE_CYCLE):
            self.run_once(0, index)

    def prepare(self, client: int, index: int):
        self.use_cpu(index)
        # A copy carries no compiled arrays or memos: every operation
        # discloses a graph as freshly loaded.
        return self.graphs[index % DISCLOSE_CYCLE].copy()

    def op(self, client: int, index: int, graph):
        slot = index % DISCLOSE_CYCLE
        config = DisclosureConfig.paper_defaults(epsilon_g=0.5)
        release = MultiLevelDiscloser(config, rng=self.seeds[slot]).disclose(graph)
        self.store.save(release, key=f"disclose-{slot}")
        return release

    def check(self, client: int, index: int, release) -> None:
        slot = index % DISCLOSE_CYCLE
        try:
            verify_release(release)
        except ReleaseIntegrityError as error:
            raise GateFailure(f"disclose op {index}: verify_release failed: {error}") from None
        digest = release_digest(release)
        if release_digest(self.store.load(f"disclose-{slot}")) != digest:
            raise GateFailure(f"disclose op {index}: stored release differs from the saved one")
        if digest != self.digests.setdefault(slot, digest):
            raise GateFailure(f"disclose op {index}: digest differs from seed {slot}'s warm-up digest")

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.backend.close()


# ----------------------------------------------------------------------
# refresh
# ----------------------------------------------------------------------
#: Authors in the refreshed graph.  The repository's ``small`` scale (5,000)
#: has a working set that made refresh latency swing with the host's load;
#: see the README.
REFRESH_AUTHORS = 1000
#: Edges each operation inserts, then removes again.
REFRESH_BATCH = 50
#: Insert-and-remove cycles in one operation.  Four make an operation last
#: over 100 ms, so that host stalls of tens of milliseconds do not set its
#: tail.
REFRESH_CYCLES = 4


class RefreshWorkload(Workload):
    """Insert one edge batch, refresh and republish; remove it, refresh and republish.

    One operation is :data:`REFRESH_CYCLES` insert-refreshes, each followed
    by its removal-refresh, so the graph is back at its base size after
    every operation and each operation re-perturbs exactly as many levels as
    it reuses.
    """

    name = "refresh"

    def setup(self) -> None:
        graph_seed, self.noise_seed, batch_seed = derived_seeds(self.seed, "refresh", 3)
        self.graph = generate_dblp_like(num_authors=REFRESH_AUTHORS, seed=graph_seed)
        self.config = DisclosureConfig.paper_defaults(epsilon_g=0.5)
        self.discloser = MultiLevelDiscloser(self.config, rng=self.noise_seed)
        self.hierarchy = self.discloser.build_hierarchy(self.graph)
        self.base = self.discloser.disclose(self.graph, hierarchy=self.hierarchy)
        self.levels = sorted(self.base.levels())
        self.store = ReleaseStore(self.workdir / "refresh.db")
        self.store.save(self.base, key="live")
        self.batch = self._edge_batch(batch_seed)
        self.run_once(0, 0)
        self.warm(self.finish)

    def _edge_batch(self, batch_seed: int) -> List[Tuple[Any, Any]]:
        rng = np.random.default_rng(batch_seed)
        left = sorted(self.graph.left_nodes(), key=str)
        right = sorted(self.graph.right_nodes(), key=str)
        batch: List[Tuple[Any, Any]] = []
        while len(batch) < REFRESH_BATCH:
            pair = (left[rng.integers(len(left))], right[rng.integers(len(right))])
            if not self.graph.has_association(*pair) and pair not in batch:
                batch.append(pair)
        return batch

    def _step(self, insert: bool):
        for left, right in self.batch:
            if insert:
                self.graph.add_association(left, right)
            else:
                self.graph.remove_association(left, right)
        result = self.discloser.refresh(self.base, self.graph, hierarchy=self.hierarchy)
        self.store.save(result.release, key="live")
        return result

    def op(self, client: int, index: int, payload):
        # Successive refreshes run on successive CPUs, so inserts and removals
        # run on different CPUs, and they swap CPUs every operation.
        results = []
        for step in range(2 * REFRESH_CYCLES):
            self.use_cpu(index + step)
            results.append(self._step(insert=step % 2 == 0))
        return results

    def check(self, client: int, index: int, results) -> None:
        for inserted, removed in zip(results[::2], results[1::2]):
            if inserted.affected_levels != self.levels or inserted.reused_levels:
                raise GateFailure(
                    f"refresh op {index}: an insert re-perturbed {inserted.affected_levels} and reused "
                    f"{inserted.reused_levels}; expected every level re-perturbed"
                )
            if removed.affected_levels or sorted(removed.reused_levels) != self.levels:
                raise GateFailure(
                    f"refresh op {index}: a removal re-perturbed {removed.affected_levels} and reused "
                    f"{removed.reused_levels}; expected every level reused"
                )
        for result in results:
            self.count("core.refresh.levels_reperturbed", len(result.affected_levels))
            self.count("core.refresh.levels_reused", len(result.reused_levels))

    def finish(self) -> None:
        """The live release equals a same-seed, same-hierarchy fresh disclosure."""
        fresh = MultiLevelDiscloser(self.config, rng=self.noise_seed).disclose(
            self.graph, hierarchy=self.hierarchy
        )
        live = self.store.load("live")
        if release_digest(live, ignore_provenance=True) != release_digest(fresh, ignore_provenance=True):
            raise GateFailure("refresh: live release differs from a from-scratch disclosure")

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.backend.close()


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
SERVE_AUTHORS = 1000
SERVE_RELEASES = 128
SERVE_LEVELS = 5
SERVE_ROLES = {"analyst": 0, "partner": 2, "public": 4}
#: Requests in each client's fixed, repeating request cycle.
SERVE_CYCLE = 512
#: The request mix is synthetic; no traffic was measured.  Each parameter is
#: set by the property it exercises.  Releases are ranked by a Zipf
#: popularity whose exponent puts this share of requests on releases outside
#: the 64 most popular, whose 256 routes would fill the default response
#: cache.  So even an ideal cache misses about one request in five, and the
#: store-load path runs throughout.
SERVE_TAIL_SHARE = 0.2
#: Releases whose routes fill the default 256-entry response cache.
SERVE_CACHED_RELEASES = 256 // (len(SERVE_ROLES) + 1)


def zipf_exponent(items: int, head: int, tail_share: float) -> float:
    """The Zipf exponent at which ranks past ``head`` of ``items`` draw ``tail_share`` of the mass."""
    low, high = 0.0, 8.0
    ranks = np.arange(1, items + 1, dtype=float)
    for _ in range(60):
        exponent = (low + high) / 2
        weights = ranks**-exponent
        if weights[head:].sum() / weights.sum() > tail_share:
            low = exponent
        else:
            high = exponent
    return (low + high) / 2


def vm_hwm_kb(pid: int) -> Optional[int]:
    """A live process's peak resident set (``VmHWM``, KiB), read from ``/proc``."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return None


class ServeWorkload(Workload):
    """Two closed-loop HTTP clients against a server over a SQLite store.

    Two clients is the most the host's two cores allow and the fewest that
    make the server handle requests concurrently.  Every route kind of a
    release (its metadata or one of the three role views) is equally likely.
    """

    name = "serve"
    clients = 2

    def setup(self) -> None:
        graph_seed, *release_seeds = derived_seeds(self.seed, "serve", SERVE_RELEASES + 1)
        graph = generate_dblp_like(num_authors=SERVE_AUTHORS, seed=graph_seed)
        config = DisclosureConfig(
            epsilon_g=0.5,
            specialization=SpecializationConfig(num_levels=SERVE_LEVELS),
            release_levels=tuple(range(SERVE_LEVELS)),
        )
        hierarchy = MultiLevelDiscloser(config, rng=graph_seed).build_hierarchy(graph)
        self.store_path = self.workdir / "serve.db"
        store = ReleaseStore(self.store_path)
        self.policy = AccessPolicy(SERVE_ROLES, top_level=hierarchy.top_level)
        self.keys = [f"rel-{index:03d}" for index in range(SERVE_RELEASES)]
        self.expected: Dict[str, bytes] = {}
        for key, release_seed in zip(self.keys, release_seeds):
            store.save(MultiLevelDiscloser(config, rng=release_seed).disclose(graph, hierarchy=hierarchy), key=key)
        for key in self.keys:
            release = store.load(key)
            for role in SERVE_ROLES:
                view = self.policy.view_for(role, release)
                self.expected[f"/releases/{key}/views/{role}"] = canonical_json_bytes(
                    {
                        "key": key,
                        "role": role,
                        "information_level": self.policy.information_level(role).name,
                        "dataset": release.dataset_name,
                        "release": view.to_dict(),
                    }
                )
        store.backend.close()
        self.sequences = [self._sequence(seed) for seed in derived_seeds(self.seed, "serve-clients", self.clients)]
        self.checked: set = set()
        self.checked_lock = threading.Lock()
        #: ``(route kind, seconds)`` of every measured request that answered 200.
        self.route_samples: List[Tuple[str, float]] = []
        self.server_peak_kb: Optional[int] = None
        self._start_server()
        warmers = [
            threading.Thread(target=lambda client=client: [self.run_once(client, index) for index in range(SERVE_CYCLE)])
            for client in range(self.clients)
        ]
        for warmer in warmers:
            warmer.start()
        for warmer in warmers:
            warmer.join()
        # The measured loop checks every route's first body again.
        self.checked.clear()
        self.route_samples.clear()

    def _sequence(self, seed: int) -> List[str]:
        rng = np.random.default_rng(seed)
        exponent = zipf_exponent(SERVE_RELEASES, SERVE_CACHED_RELEASES, SERVE_TAIL_SHARE)
        weights = 1.0 / np.arange(1, SERVE_RELEASES + 1) ** exponent
        releases = rng.choice(SERVE_RELEASES, size=SERVE_CYCLE, p=weights / weights.sum())
        kinds = rng.integers(0, len(SERVE_ROLES) + 1, size=SERVE_CYCLE)
        roles = list(SERVE_ROLES)
        routes = []
        for release, kind in zip(releases, kinds):
            key = self.keys[int(release)]
            routes.append(f"/releases/{key}" if kind == len(roles) else f"/releases/{key}/views/{roles[kind]}")
        return routes

    def _start_server(self) -> None:
        self.server = None
        self.process = None
        if self.in_process:
            self.server = create_server(self.store_path, self.policy).start()
            self.url = self.server.url
            return
        policy_path = self.workdir / "policy.json"
        policy_path.write_text(json.dumps(self.policy.to_dict()))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(self.store_path),
             "--policy", str(policy_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        for line in self.process.stdout:
            match = re.search(r" on (http://[\d.]+:\d+)", line)
            if match:
                self.url = match.group(1)
                return
        raise RuntimeError(f"repro serve exited with {self.process.wait(timeout=10)} before listening")

    def healthz(self) -> dict:
        return json.loads(self.fetch(0, "/healthz")[1])

    def fetch(self, client: int, route: str) -> Tuple[int, bytes]:
        # The program's own client: one connection per request, identity body.
        response = http_get_response(self.url + route, timeout=30, accept_gzip=False)
        return response.status, response.body

    def prepare(self, client: int, index: int):
        return self.sequences[client][index % SERVE_CYCLE]

    def op(self, client: int, index: int, route: str):
        start = time.perf_counter()
        status, body = self.fetch(client, route)
        return route, status, body, time.perf_counter() - start

    def check(self, client: int, index: int, output) -> None:
        route, status, body, seconds = output
        if status != 200:
            raise GateFailure(f"GET {route} answered {status}: {body[:400]!r}")
        with self.checked_lock:
            first = route not in self.checked
            self.checked.add(route)
        kind = "view" if "/views/" in route else "metadata"
        if first:
            if kind == "view" and body != self.expected[route]:
                raise GateFailure(f"GET {route}: body differs from the canonical view")
            if kind == "metadata" and json.loads(body)["key"] != route.rsplit("/", 1)[-1]:
                raise GateFailure(f"GET {route}: metadata names another release")
        with self.checked_lock:
            self.route_samples.append((kind, seconds))
        self.count("serving.response_bytes", len(body))

    def begin_trace(self, tracer) -> None:
        self.health_before = self.healthz()
        self.traced_from = len(self.route_samples)

    def layer_metrics(self, tracer, op_count: int) -> Dict[str, float]:
        after = self.healthz()
        before = self.health_before

        def delta(section: str, field: str) -> int:
            return after[section][field] - before[section][field]

        store_lookups = delta("cache", "lookups")
        cache_lookups = delta("response_cache", "lookups")
        traced = self.route_samples[self.traced_from:]
        return {
            "serving.view_ms": self._median_ms(traced, "view"),
            "serving.metadata_ms": self._median_ms(traced, "metadata"),
            "serving.respcache_hit_ratio": delta("response_cache", "hits") / cache_lookups if cache_lookups else 0.0,
            "serving.respcache_invalidations": delta("response_cache", "invalidations"),
            "serving.shed": after["fault_tolerance"]["shed"] - before["fault_tolerance"]["shed"],
            "store.cache_hit_ratio": delta("cache", "hits") / store_lookups if store_lookups else 0.0,
        }

    @staticmethod
    def _median_ms(samples: List[Tuple[str, float]], kind: str) -> float:
        return 1000 * median([seconds for each, seconds in samples if each == kind] or [0.0])

    def info(self) -> Dict[str, object]:
        """Latency by route kind, and which kinds make up the slowest tenth of requests."""
        if not self.route_samples:
            return {}
        cut = sorted(seconds for _, seconds in self.route_samples)[int(0.9 * len(self.route_samples))]
        tail = [kind for kind, seconds in self.route_samples if seconds >= cut]
        return {
            "view_p50_ms": self._median_ms(self.route_samples, "view"),
            "metadata_p50_ms": self._median_ms(self.route_samples, "metadata"),
            "metadata_share": sum(kind == "metadata" for kind, _ in self.route_samples) / len(self.route_samples),
            "metadata_share_beyond_p90": tail.count("metadata") / len(tail),
        }

    def peak_rss_kb(self) -> Optional[int]:
        """The ``repro serve`` process's own peak, read just before it stopped."""
        return self.server_peak_kb

    def close(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.stop()
        process = getattr(self, "process", None)
        if process is not None:
            self.server_peak_kb = vm_hwm_kb(process.pid)
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
SWEEP_EPSILONS = (0.25, 0.5, 1.0, 2.0)
SWEEP_LEVELS = 5
SWEEP_AUTHORS = 300
SWEEP_WORKERS = 2
#: Row columns that record timing rather than results.
SWEEP_TIMING_COLUMNS = ("elapsed_seconds", "started_at", "save_ms", "save_bytes")


def sweep_runner(epsilon_g: float, seed: int, levels: int, store: str) -> dict:
    """Disclose one sweep combination and persist it (pickled by import path)."""
    started_at = time.time()
    graph = generate_dblp_like(num_authors=SWEEP_AUTHORS, seed=seed)
    config = DisclosureConfig(epsilon_g=epsilon_g, specialization=SpecializationConfig(num_levels=levels))
    release = MultiLevelDiscloser(config, rng=seed).disclose(graph)
    key = f"sweep-l{levels}-eps{epsilon_g}-seed{seed}"
    save_start = time.perf_counter()
    target = ReleaseStore(store)
    target.save(release, key=key)
    save_ms = 1000 * (time.perf_counter() - save_start)
    save_bytes = len(target.backend.get_document(key)) + len(target.backend.get_answers(key) or b"")
    target.backend.close()
    return {
        "store_key": key,
        "levels_disclosed": len(release.levels()),
        "digest": release_digest(release),
        "started_at": started_at,
        "save_ms": save_ms,
        "save_bytes": save_bytes,
    }


def comparable_rows(rows: List[dict]) -> List[dict]:
    return [{k: v for k, v in row.items() if k not in SWEEP_TIMING_COLUMNS} for row in rows]


class SweepWorkload(Workload):
    """A journaled 16-combination sweep through a 2-worker process pool.

    Each sweep gets a new journal, snapshot and SQLite store.  The store is
    created, untimed, before the sweep starts, so the pool workers open an
    existing store, as on a ``repro sweep --store`` into a store made
    earlier.
    """

    name = "sweep"
    #: Leave the store for the pool workers to create (see :class:`FreshStoreSweepWorkload`).
    fresh_store = False

    def setup(self) -> None:
        self.seeds = derived_seeds(self.seed, "sweep", 4)
        self.grid = {"epsilon_g": list(SWEEP_EPSILONS), "seed": self.seeds}
        reference = self._sweep(self.workdir / "serial.db").run()
        self.reference = comparable_rows(reference.rows)
        self.run_once(0, 0)

    def _sweep(self, store: Path) -> ParameterSweep:
        runner = partial(sweep_runner, levels=SWEEP_LEVELS, store=str(store))
        return ParameterSweep(runner, self.grid, name=f"perfbench-sweep-{self.seed}")

    def prepare(self, client: int, index: int) -> Path:
        opdir = self.workdir / f"op-{index % 2}"
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir()
        if not self.fresh_store:
            ReleaseStore(opdir / "sweep.db").backend.close()
        return opdir

    def op(self, client: int, index: int, opdir: Path):
        start = time.perf_counter()
        started_at = time.time()
        journal = opdir / "journal.json"
        scheduler = SweepScheduler(executor="process", workers=SWEEP_WORKERS, budget=SWEEP_WORKERS)
        result = self._sweep(opdir / "sweep.db").run(
            record_time=True,
            scheduler=scheduler,
            journal=journal,
            on_error="collect_errors",
            snapshot=Path(str(journal) + ".events.jsonl"),
        )
        return result, started_at, time.perf_counter() - start, journal

    def check(self, client: int, index: int, output) -> None:
        result, started_at, seconds, journal = output
        if result.errors:
            first = result.errors[0]
            raise OpFailure(f"sweep op {index}: {len(result.errors)} combination(s) failed, "
                               f"first {first['type']}: {first['message']}")
        snapshot = result.snapshot
        if not snapshot.is_converged() or snapshot.counts()["DONE"] != len(self.reference):
            raise GateFailure(f"sweep op {index}: snapshot did not converge: {snapshot.counts()}")
        if comparable_rows(result.rows) != self.reference:
            raise GateFailure(f"sweep op {index}: rows differ from the serial reference run")
        if self.tracer is not None:
            busy = sum(row["elapsed_seconds"] for row in result.rows)
            events = Path(str(journal) + ".events.jsonl")
            self.count("execution.pool_start_ms", 1000 * (min(row["started_at"] for row in result.rows) - started_at))
            self.count("execution.busy_ms", 1000 * busy)
            self.count("execution.wall_ms", 1000 * seconds)
            self.count("execution.retries", sum(snapshot.attempt(key) - 1 for key in snapshot.tasks))
            self.count("evaluation.sweep_overhead_ms", 1000 * (seconds - busy / SWEEP_WORKERS))
            self.count("evaluation.journal_bytes", journal.stat().st_size + events.stat().st_size)
            self.count("evaluation.snapshot_events", len(events.read_text().splitlines()))
            self.count("store.save_ms", sum(row["save_ms"] for row in result.rows))
            self.count("store.bytes_written", sum(row["save_bytes"] for row in result.rows))

    def layer_metrics(self, tracer, op_count: int) -> Dict[str, float]:
        counters = tracer.counters
        wall = counters["execution.wall_ms"]
        return {
            "execution.utilization": counters["execution.busy_ms"] / (wall * SWEEP_WORKERS) if wall else 0.0,
            "store.save_ms": counters["store.save_ms"] / op_count if op_count else 0.0,
        }


class FreshStoreSweepWorkload(SweepWorkload):
    """The sweep with each store left for the pool workers to create.

    This is the path of a first ``repro sweep --store`` run.  Two workers
    creating one SQLite store at once now and then fail a combination with
    ``database is locked``, so the workload is held out of ``BENCHMARK.json``
    and runs by hand; see the README's known defects.
    """

    name = "sweep_fresh"
    fresh_store = True


WORKLOADS = {
    workload.name: workload
    for workload in (DiscloseWorkload, RefreshWorkload, ServeWorkload, SweepWorkload, FreshStoreSweepWorkload)
}
