"""Multi-process serving: N ``SO_REUSEPORT`` workers behind one port.

A single :class:`~repro.serving.server.ReleaseServer` process tops out at
whatever one Python process can push through one accept loop.  The request
path, however, is read-only and shares nothing mutable — every worker needs
only the store *file* path and the access-policy dict — so the natural way
to scale it is the classic ``SO_REUSEPORT`` fleet: N independent processes
each bind the **same** ``host:port`` with ``SO_REUSEPORT`` set, and the
kernel load-balances incoming connections across them.  No proxy, no shared
state, no coordination on the hot path.

:class:`ServerFleet` owns the lifecycle:

* **spawn** — one :mod:`multiprocessing` worker per process, each building
  its own :class:`~repro.core.store.ReleaseStore` over the shared SQLite file
  (stores hold connections and caches, so they are constructed *inside* the
  worker, never pickled across);
* **readiness** — each worker reports its bound port over a pipe-backed
  queue, then the fleet polls ``GET /healthz`` until the shared port
  answers ``200`` (or a startup timeout trips);
* **shutdown** — ``stop()`` sends ``SIGTERM``; workers install a handler
  (before they report readiness) that leaves the HTTP loop and closes the
  listening socket;
* **respawn** — a monitor thread replaces dead workers, up to
  ``max_respawns`` total (mirroring the process executor's
  ``max_pool_rebuilds`` budget), so one segfaulted worker degrades capacity
  for milliseconds instead of forever.

On platforms without ``SO_REUSEPORT`` (or with ``processes=1``) the fleet
**falls back** to a single in-process :class:`ReleaseServer` behind the same
interface — ``fallback_reason`` says why — so callers never need their own
platform switch.

Because each worker runs the same fingerprint-keyed response cache over the
same store file, responses are byte-identical (modulo negotiated
encoding) no matter which worker the kernel picks: the canonical JSON and
the deterministic gzip variant are pure functions of the stored bytes.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_module
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.access import AccessPolicy
from repro.core.store import ReleaseStore
from repro.exceptions import ServingError, ValidationError
from repro.serving.client import http_get
from repro.serving.respcache import DEFAULT_RESPONSE_CACHE_SIZE
from repro.serving.server import DEFAULT_CACHE_SIZE, ReleaseServer, _ReleaseHTTPServer
from repro.serving.server import ReleaseRequestHandler
from repro.utils.serialization import from_json_file

PathLike = Union[str, Path]

#: Seconds the fleet waits for the shared port to answer ``/healthz``.
DEFAULT_STARTUP_TIMEOUT = 30.0

#: Dead workers replaced per fleet lifetime before giving up (the
#: ``max_pool_rebuilds`` idea applied to serving processes).
DEFAULT_MAX_RESPAWNS = 2

#: Poll cadence of the readiness probe and the respawn monitor.
_POLL_SECONDS = 0.05


def reuseport_available() -> bool:
    """Whether this platform supports ``SO_REUSEPORT`` on TCP sockets."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        finally:
            probe.close()
    except OSError:  # pragma: no cover - platform-dependent
        return False
    return True


def _reserve_port(host: str) -> int:
    """Pick a currently-free port for the fleet to share.

    The probe socket binds with ``SO_REUSEPORT`` and is closed before any
    worker binds; workers then claim the number with their own REUSEPORT
    sockets.  (The classic tiny race of reserve-then-rebind — acceptable for
    tests and loopback deployments; production fleets pass a fixed port.)
    """
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


class _ReuseportHTTPServer(_ReleaseHTTPServer):
    """The threading HTTP server, binding with ``SO_REUSEPORT`` set."""

    def server_bind(self):
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class _StopServing(Exception):
    """Raised by a fleet worker's signal handler to leave its serve loop."""


def _fleet_worker(config: Dict, ready_queue) -> None:
    """One fleet process: bind, report readiness, serve until SIGTERM.

    Module-level (and fed only a plain dict) so it works under both the
    ``fork`` and ``spawn`` multiprocessing start methods: the store and the
    HTTP server are constructed *here*, inside the worker.
    """
    store = ReleaseStore(config["store_path"], cache_size=config["cache_size"])
    policy = AccessPolicy.from_dict(config["policy"])
    try:
        httpd = _ReuseportHTTPServer(
            (config["host"], config["port"]),
            ReleaseRequestHandler,
            store,
            policy,
            config["verbose"],
            max_in_flight=config["max_in_flight"],
            handler_timeout=config["handler_timeout"],
            response_cache_size=config["response_cache_size"],
            gzip_enabled=config["gzip_enabled"],
        )
    except OSError as error:
        ready_queue.put(("error", config["worker"], str(error)))
        sys.exit(1)

    def shut_down(signum, frame):  # noqa: ARG001 - signal handler signature
        # Raise out of the serve loop rather than call httpd.shutdown(): a
        # shutdown() that lands before serve_forever() starts is lost (the
        # loop resets its flag on entry) and the worker would serve on.
        raise _StopServing

    # Installed before readiness is reported, so the fleet can never signal
    # a worker that would ignore it.
    signal.signal(signal.SIGTERM, shut_down)
    signal.signal(signal.SIGINT, shut_down)
    try:
        ready_queue.put(("bound", config["worker"], httpd.server_address[1]))
        httpd.serve_forever()
    except _StopServing:
        pass
    finally:
        httpd.server_close()


class ServerFleet:
    """N ``SO_REUSEPORT`` server processes sharing one port and one store.

    Parameters
    ----------
    store_path:
        The SQLite release-store file every worker opens read-only (WAL
        mode makes its concurrent readers safe).  A *path* (not a live
        :class:`ReleaseStore`) is required: stores carry connections and caches
        that must not cross process boundaries, and an in-memory store
        cannot be shared between processes at all.
    policy:
        An :class:`AccessPolicy`, its ``to_dict()`` mapping, or a JSON file
        path in that format.
    host, port:
        Shared bind address.  ``port=0`` reserves a free port up front (all
        workers must agree on the number before binding).
    processes:
        Fleet size.  ``1`` — or any value on a platform without
        ``SO_REUSEPORT`` — serves from a single in-process
        :class:`ReleaseServer` instead (see :attr:`fallback_reason`).
    cache_size, response_cache_size, gzip_enabled, max_in_flight,
    handler_timeout, verbose:
        Passed through to every worker's server, so the fleet behaves like
        one bigger :class:`ReleaseServer`.
    max_respawns:
        Dead workers replaced over the fleet's lifetime before the monitor
        gives up (the serving twin of ``ProcessExecutor.max_pool_rebuilds``).
    startup_timeout:
        Seconds to wait for every worker to bind and for ``/healthz`` to
        answer before ``start()`` fails.

    Examples
    --------
    >>> fleet = ServerFleet(store_db, policy, processes=4).start()   # doctest: +SKIP
    >>> fetch_json(fleet.url, "/healthz")["status"]                  # doctest: +SKIP
    'ok'
    >>> fleet.stop()                                                 # doctest: +SKIP
    """

    def __init__(
        self,
        store_path: PathLike,
        policy: Union[AccessPolicy, Dict, PathLike],
        host: str = "127.0.0.1",
        port: int = 0,
        processes: int = 2,
        cache_size: int = DEFAULT_CACHE_SIZE,
        response_cache_size: int = DEFAULT_RESPONSE_CACHE_SIZE,
        gzip_enabled: bool = True,
        max_in_flight: Optional[int] = None,
        handler_timeout: Optional[float] = None,
        verbose: bool = False,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        startup_timeout: float = DEFAULT_STARTUP_TIMEOUT,
    ):
        if int(processes) < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        if int(max_respawns) < 0:
            raise ValidationError(f"max_respawns must be >= 0, got {max_respawns}")
        store_path = Path(store_path)
        if not store_path.is_file():
            raise ValidationError(
                f"store_path must be an existing SQLite store file, got {store_path}"
            )
        if isinstance(policy, AccessPolicy):
            policy_dict = policy.to_dict()
        elif isinstance(policy, dict):
            policy_dict = dict(policy)
        else:
            policy_dict = from_json_file(policy)
        self.policy = AccessPolicy.from_dict(policy_dict)
        self.store_path = store_path
        self.requested_processes = int(processes)
        self.max_respawns = int(max_respawns)
        self.startup_timeout = float(startup_timeout)
        self.fallback_reason: Optional[str] = None
        if self.requested_processes == 1:
            self.fallback_reason = "processes=1"
        elif not reuseport_available():
            self.fallback_reason = "SO_REUSEPORT unavailable on this platform"
        self.processes = 1 if self.fallback_reason else self.requested_processes
        self._config = {
            "host": host,
            "port": int(port),
            "policy": policy_dict,
            "store_path": str(store_path),
            "cache_size": int(cache_size),
            "response_cache_size": int(response_cache_size),
            "gzip_enabled": bool(gzip_enabled),
            "max_in_flight": max_in_flight,
            "handler_timeout": handler_timeout,
            "verbose": bool(verbose),
        }
        self._workers: List[multiprocessing.Process] = []
        self._single: Optional[ReleaseServer] = None
        self._queue = None
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._respawns = 0
        self._lock = threading.Lock()
        self._started = False

    # -- address -----------------------------------------------------------
    @property
    def host(self) -> str:
        return self._config["host"]

    @property
    def port(self) -> int:
        return self._config["port"]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- introspection -----------------------------------------------------
    def alive_workers(self) -> int:
        """Live fleet processes (1 in single-process fallback mode)."""
        if self._single is not None:
            return 1 if self._started else 0
        return sum(1 for worker in self._workers if worker.is_alive())

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty in fallback mode)."""
        return [worker.pid for worker in self._workers if worker.is_alive()]

    @property
    def respawns(self) -> int:
        """Dead workers replaced so far."""
        return self._respawns

    def describe(self) -> Dict:
        """JSON-ready effective configuration (the ``repro serve`` log line)."""
        return {
            "processes": self.processes,
            "requested_processes": self.requested_processes,
            "reuseport": self.fallback_reason is None,
            "fallback_reason": self.fallback_reason,
            "host": self.host,
            "port": self.port,
            "cache_size": self._config["cache_size"],
            "response_cache_size": self._config["response_cache_size"],
            "gzip": self._config["gzip_enabled"],
            "max_in_flight": self._config["max_in_flight"],
            "handler_timeout": self._config["handler_timeout"],
            "max_respawns": self.max_respawns,
        }

    # -- lifecycle ---------------------------------------------------------
    def _spawn_worker(self, index: int) -> multiprocessing.Process:
        config = dict(self._config, worker=index)
        worker = multiprocessing.Process(
            target=_fleet_worker,
            args=(config, self._queue),
            name=f"repro-serving-worker-{index}",
            daemon=True,
        )
        worker.start()
        return worker

    def _await_bound(self, expected: int) -> None:
        """Wait for ``expected`` workers to report their bound port."""
        deadline = time.monotonic() + self.startup_timeout
        bound = 0
        while bound < expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServingError(
                    f"fleet startup timed out: {bound}/{expected} workers bound "
                    f"within {self.startup_timeout:g}s"
                )
            try:
                kind, worker, detail = self._queue.get(timeout=min(remaining, 1.0))
            except queue_module.Empty:
                continue
            if kind == "error":
                raise ServingError(f"fleet worker {worker} failed to bind: {detail}")
            bound += 1

    def _await_healthz(self) -> None:
        """Poll the shared port until ``/healthz`` answers 200."""
        deadline = time.monotonic() + self.startup_timeout
        last_error = "no response"
        while time.monotonic() < deadline:
            try:
                status, _ = http_get(f"{self.url}/healthz", timeout=2.0)
            except ServingError as error:
                last_error = str(error)
            else:
                if status == 200:
                    return
                last_error = f"/healthz answered {status}"
            time.sleep(_POLL_SECONDS)
        raise ServingError(f"fleet readiness probe failed: {last_error}")

    def _monitor_loop(self) -> None:
        """Replace dead workers until stopped or the respawn budget is spent."""
        while not self._stopping.wait(_POLL_SECONDS):
            with self._lock:
                for index, worker in enumerate(self._workers):
                    if worker.is_alive() or self._stopping.is_set():
                        continue
                    if self._respawns >= self.max_respawns:
                        continue
                    self._respawns += 1
                    self._workers[index] = self._spawn_worker(index)

    def start(self) -> "ServerFleet":
        """Bind the fleet, wait for readiness, and return ``self``."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        if self.fallback_reason is not None:
            # Single-process path: an in-process server behind the same API.
            self._single = ReleaseServer(
                ReleaseStore(
                    self._config["store_path"], cache_size=self._config["cache_size"]
                ),
                self.policy,
                host=self._config["host"],
                port=self._config["port"],
                verbose=self._config["verbose"],
                max_in_flight=self._config["max_in_flight"],
                handler_timeout=self._config["handler_timeout"],
                response_cache_size=self._config["response_cache_size"],
                gzip_enabled=self._config["gzip_enabled"],
            ).start()
            self._config["port"] = self._single.port
            return self
        if self._config["port"] == 0:
            self._config["port"] = _reserve_port(self._config["host"])
        self._queue = multiprocessing.Queue()
        self._workers = [self._spawn_worker(index) for index in range(self.processes)]
        try:
            self._await_bound(self.processes)
            self._await_healthz()
        except Exception:
            self.stop()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def stop(self) -> None:
        """Signal-driven shutdown: SIGTERM every worker, then reap (idempotent)."""
        self._stopping.set()
        if self._single is not None:
            self._single.stop()
            self._single = None
            return
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            if worker.is_alive():
                worker.terminate()  # delivers SIGTERM → leaves the serve loop
        for worker in workers:
            worker.join(timeout=5.0)
            if worker.is_alive():  # pragma: no cover - stuck worker
                worker.kill()
                worker.join(timeout=5.0)
        if self._queue is not None:
            self._queue.close()
            self._queue = None

    def serve_forever(self) -> None:
        """Blocking front for the CLI: wait until interrupted, then stop.

        ``KeyboardInterrupt`` propagates after the graceful stop, so the CLI
        reports the uniform one-line message and exit status 130.
        """
        try:
            while True:
                time.sleep(0.5)
        finally:
            self.stop()

    def __enter__(self) -> "ServerFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServerFleet(processes={self.processes}, url={self.url!r}, "
            f"store={str(self.store_path)!r})"
        )


def format_config_line(config: Dict) -> str:
    """One structured-JSON stderr line describing an effective serving setup.

    Sorted keys make the line diff-stable across runs, so fleet deployments
    are diagnosable (and greppable) from logs alone.
    """
    return json.dumps({"event": "serve-config", **config}, sort_keys=True)
