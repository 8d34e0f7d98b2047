"""Throughput and latency of the read-only HTTP serving layer.

Populates a store with one release of the benchmark graph, starts a
:class:`~repro.serving.ReleaseServer` on a free port, and measures the
request path the way a consumer sees it — full HTTP round-trips through the
stdlib client fetching per-role views.  Two store configurations are timed:

* **cold cache** (``cache_size=0``): every request re-reads and re-parses
  the stored JSON+npz artefacts;
* **warm cache** (``cache_size=32``): after the first load the parsed
  release is served from the LRU read-through cache (each hit re-validated
  against the backend's change fingerprint).

A third **overload** section bounds the server's in-flight work
(``max_in_flight``) and drives it with twice that many closed-loop clients,
recording the shed rate (``503`` + ``Retry-After`` answers) and the latency
the *served* requests pay at 2x saturation.  A small injected backend delay
gives every request a fixed work floor, so "saturation" means the same
thing on any host.

Those three sections run with the response byte cache *off*
(``response_cache_size=0``) so they stay comparable with the historical
baseline.  Two further sections measure the scaling work:

* **response_cache** — the same warm store with the fingerprint-keyed
  response cache on: cached GETs (zero serialisation, zero store reads) and
  ``If-None-Match`` → ``304`` revalidations, asserted to beat the
  single-process warm baseline;
* **grid** — a processes × client-threads sweep over a
  :class:`~repro.serving.ServerFleet` (``SO_REUSEPORT``), with client-side
  200/304 counting; the ≥ 2x multi-process speedup assertion is gated on
  the host actually having ≥ 4 cores (mirroring
  ``test_bench_parallel.py``), so single-core CI still records honest
  numbers without asserting the impossible.

Results — requests/sec plus p50/p99 latency per configuration — go to
``benchmarks/results/serving.json`` / ``serving.txt``.  The benchmark
asserts only sanity (every response 200 and bit-stable, warm no slower than
half of cold, cached no slower than warm, overload sheds something and
serves something) because absolute numbers are hardware-bound.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, save_text
from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import ReleaseStore
from repro.execution.faults import FaultInjectingBackend
from repro.grouping.specialization import SpecializationConfig
from repro.serving import (
    ReleaseServer,
    ServerFleet,
    http_get,
    http_get_response,
    reuseport_available,
)
from repro.utils.serialization import to_json_file

#: Hierarchy depth of the benchmark release.
NUM_LEVELS = 9

#: Requests measured per store configuration (after warm-up).
NUM_REQUESTS = 400

#: Unmeasured warm-up requests (connection setup, first cache fill).
NUM_WARMUP = 25

#: In-flight bound of the overloaded server; clients run at 2x this.
OVERLOAD_MAX_IN_FLIGHT = 4

#: Per-request backend floor (seconds) making saturation host-independent.
OVERLOAD_FLOOR = 0.005

#: Requests each overload client issues.
OVERLOAD_REQUESTS_PER_CLIENT = 50

#: Cores below which the >= 2x fleet speedup assertion is skipped.
MIN_CORES_FOR_FLEET_SPEEDUP = 4

#: Fleet sizes swept by the grid section: up to 4 processes where the host
#: has the cores to drive them, else just the 1-vs-2 comparison (recorded,
#: never asserted, on small hosts).
GRID_PROCESSES = (
    (1, 2, 4) if (os.cpu_count() or 1) >= MIN_CORES_FOR_FLEET_SPEEDUP else (1, 2)
)

#: Closed-loop client threads swept by the grid section.
GRID_CLIENT_THREADS = (1, 4)

#: Requests each grid client thread issues (half of them revalidations).
GRID_REQUESTS_PER_CLIENT = 100


def _measure(server: ReleaseServer, paths: List[str], num_requests: int) -> Dict:
    """Round-robin ``paths`` for ``num_requests`` full HTTP round-trips."""
    bodies = {}
    for index in range(NUM_WARMUP):
        status, body = http_get(server.url + paths[index % len(paths)])
        assert status == 200
        bodies.setdefault(paths[index % len(paths)], body)

    latencies = []
    start = time.perf_counter()
    for index in range(num_requests):
        path = paths[index % len(paths)]
        tick = time.perf_counter()
        status, body = http_get(server.url + path)
        latencies.append(time.perf_counter() - tick)
        assert status == 200
        # Serving is deterministic: every response for a path is bit-stable.
        assert body == bodies[path]
    elapsed = time.perf_counter() - start

    latencies_ms = np.asarray(latencies) * 1000.0
    return {
        "requests": num_requests,
        "seconds": elapsed,
        "requests_per_second": num_requests / elapsed,
        "latency_ms": {
            "p50": float(np.percentile(latencies_ms, 50)),
            "p90": float(np.percentile(latencies_ms, 90)),
            "p99": float(np.percentile(latencies_ms, 99)),
            "mean": float(latencies_ms.mean()),
            "max": float(latencies_ms.max()),
        },
    }


def _overload(server: ReleaseServer, paths: List[str]) -> Dict:
    """Drive the server with 2x ``max_in_flight`` closed-loop clients."""
    num_clients = 2 * OVERLOAD_MAX_IN_FLIGHT
    barrier = threading.Barrier(num_clients)
    outcomes: List[List] = [[] for _ in range(num_clients)]

    def drive(worker: int) -> None:
        barrier.wait()
        for index in range(OVERLOAD_REQUESTS_PER_CLIENT):
            path = paths[(worker + index) % len(paths)]
            tick = time.perf_counter()
            status, _ = http_get(server.url + path)
            outcomes[worker].append((status, time.perf_counter() - tick))

    threads = [
        threading.Thread(target=drive, args=(worker,)) for worker in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    flat = [outcome for per_client in outcomes for outcome in per_client]
    assert {status for status, _ in flat} <= {200, 503}
    served_ms = np.asarray(
        [seconds for status, seconds in flat if status == 200]
    ) * 1000.0
    shed = sum(1 for status, _ in flat if status == 503)
    return {
        "clients": num_clients,
        "max_in_flight": OVERLOAD_MAX_IN_FLIGHT,
        "backend_floor_ms": OVERLOAD_FLOOR * 1000.0,
        "requests": len(flat),
        "served": int(len(served_ms)),
        "shed": shed,
        "shed_rate": shed / len(flat),
        "served_latency_ms": {
            "p50": float(np.percentile(served_ms, 50)),
            "p99": float(np.percentile(served_ms, 99)),
        },
    }


def _measure_revalidation(server_url: str, paths: List[str], num_requests: int) -> Dict:
    """Closed-loop ``If-None-Match`` revalidations — every answer a 304."""
    etags = {path: http_get_response(server_url + path).etag for path in paths}
    latencies = []
    start = time.perf_counter()
    for index in range(num_requests):
        path = paths[index % len(paths)]
        tick = time.perf_counter()
        response = http_get_response(server_url + path, etag=etags[path])
        latencies.append(time.perf_counter() - tick)
        assert response.status == 304
        assert response.body == b""
    elapsed = time.perf_counter() - start
    latencies_ms = np.asarray(latencies) * 1000.0
    return {
        "requests": num_requests,
        "seconds": elapsed,
        "requests_per_second": num_requests / elapsed,
        "latency_ms": {
            "p50": float(np.percentile(latencies_ms, 50)),
            "p99": float(np.percentile(latencies_ms, 99)),
        },
    }


def _drive_grid_cell(url: str, paths: List[str], num_threads: int) -> Dict:
    """``num_threads`` closed-loop clients over one (fleet) endpoint.

    Every client alternates plain GETs with ``If-None-Match`` revalidations,
    so each cell reports both throughput and the 304 hit rate.  Statuses are
    counted client-side: a fleet's ``/healthz`` counters are per worker
    process, so only the client sees the whole fleet's traffic.  Clients ask
    for identity bodies — decompressing gzip in the (GIL-bound) measuring
    process would bottleneck the client before the fleet.
    """
    etags = {path: http_get_response(url + path).etag for path in paths}
    outcomes: List[List] = [[] for _ in range(num_threads)]
    barrier = threading.Barrier(num_threads)

    def drive(worker: int) -> None:
        barrier.wait()
        for index in range(GRID_REQUESTS_PER_CLIENT):
            path = paths[(worker + index) % len(paths)]
            etag = etags[path] if index % 2 else None
            tick = time.perf_counter()
            response = http_get_response(url + path, etag=etag, accept_gzip=False)
            outcomes[worker].append((response.status, time.perf_counter() - tick))

    threads = [
        threading.Thread(target=drive, args=(worker,)) for worker in range(num_threads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    flat = [outcome for per_client in outcomes for outcome in per_client]
    statuses = {status for status, _ in flat}
    assert statuses <= {200, 304}, statuses
    revalidations = sum(1 for status, _ in flat if status == 304)
    latencies_ms = np.asarray([seconds for _, seconds in flat]) * 1000.0
    return {
        "client_threads": num_threads,
        "requests": len(flat),
        "seconds": elapsed,
        "requests_per_second": len(flat) / elapsed,
        "responses_200": len(flat) - revalidations,
        "responses_304": revalidations,
        "etag_hit_rate": revalidations / len(flat),
        "latency_ms": {
            "p50": float(np.percentile(latencies_ms, 50)),
            "p99": float(np.percentile(latencies_ms, 99)),
        },
    }


@pytest.mark.slow
def test_bench_serving_throughput_and_latency(bench_graph, results_dir, tmp_path):
    """requests/sec + latency percentiles of per-role view serving."""
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=NUM_LEVELS)
    )
    release = MultiLevelDiscloser(config, rng=BENCH_SEED).disclose(bench_graph)
    policy = AccessPolicy(
        {"analyst": 0, "partner": release.levels()[len(release.levels()) // 2],
         "public": release.levels()[-1]},
        top_level=NUM_LEVELS,
    )

    record = {
        "benchmark": "serving-http-views",
        "scale": BENCH_SCALE,
        "num_levels": NUM_LEVELS,
        "seed": BENCH_SEED,
        "roles": policy.roles(),
    }
    for label, cache_size in (("cold_cache", 0), ("warm_cache", 32)):
        store = ReleaseStore(tmp_path / f"store-{label}.db", cache_size=cache_size)
        key = store.save(release)
        paths = [f"/releases/{key}/views/{role}" for role in policy.roles()]
        # response_cache_size=0 keeps these sections the historical baseline:
        # every request serialises, exactly as pre-response-cache serving did.
        with ReleaseServer(store, policy, port=0, response_cache_size=0) as server:
            record[label] = _measure(server, paths, NUM_REQUESTS)
            record[label]["cache"] = store.cache_info()

    # Response byte cache on: a warm GET replays precomputed bytes (zero
    # serialisation, zero store reads), and revalidations answer empty 304s.
    store = ReleaseStore(tmp_path / "store-respcache.db", cache_size=32)
    key = store.save(release)
    paths = [f"/releases/{key}/views/{role}" for role in policy.roles()]
    with ReleaseServer(store, policy, port=0) as server:
        record["response_cache"] = _measure(server, paths, NUM_REQUESTS)
        record["response_cache"]["revalidation_304"] = _measure_revalidation(
            server.url, paths, NUM_REQUESTS
        )
        stats = server.stats.snapshot()
        cache_stats = server.response_cache.stats()
        total_hits = cache_stats["hits"]
        record["response_cache"]["server_stats"] = {
            "etag_hits": stats["etag_hits"],
            "gzip_responses": stats["gzip_responses"],
            "cache_invalidations": stats["cache_invalidations"],
            "cache": cache_stats,
            "etag_hit_rate": stats["etag_hits"] / max(1, total_hits),
            "gzip_hit_rate": stats["gzip_responses"] / max(1, total_hits),
        }

    # Overload: bound in-flight work and drive the server at 2x saturation,
    # recording how much it sheds and what the surviving requests pay.
    inner = ReleaseStore(tmp_path / "store-overload.db")
    key = inner.save(release)
    slow_store = ReleaseStore(
        FaultInjectingBackend(inner.backend, delay={"get_document": OVERLOAD_FLOOR})
    )
    paths = [f"/releases/{key}/views/{role}" for role in policy.roles()]
    with ReleaseServer(
        slow_store,
        policy,
        port=0,
        max_in_flight=OVERLOAD_MAX_IN_FLIGHT,
        response_cache_size=0,  # cached hits bypass shedding by design
    ) as server:
        record["overload"] = _overload(server, paths)
        record["overload"]["server_stats"] = server.stats.snapshot()

    # Grid: fleet size x client threads, all requests served from the
    # response cache (the scaling configuration the tentpole targets).
    store_path = tmp_path / "store-grid.db"
    key = ReleaseStore(store_path).save(release)
    paths = [f"/releases/{key}/views/{role}" for role in policy.roles()]
    record["grid"] = {
        "cpu_count": os.cpu_count(),
        "reuseport": reuseport_available(),
        "requests_per_client": GRID_REQUESTS_PER_CLIENT,
        "cells": {},
    }
    for processes in GRID_PROCESSES:
        with ServerFleet(store_path, policy, processes=processes) as fleet:
            for num_threads in GRID_CLIENT_THREADS:
                cell = _drive_grid_cell(fleet.url, paths, num_threads)
                cell["processes"] = fleet.processes
                cell["fallback_reason"] = fleet.fallback_reason
                record["grid"]["cells"][f"p{processes}_c{num_threads}"] = cell

    busiest = max(GRID_CLIENT_THREADS)
    single = record["grid"]["cells"][f"p{GRID_PROCESSES[0]}_c{busiest}"]
    multi = record["grid"]["cells"][f"p{GRID_PROCESSES[-1]}_c{busiest}"]
    fleet_speedup = multi["requests_per_second"] / single["requests_per_second"]
    record["grid"]["fleet_speedup"] = fleet_speedup

    to_json_file(record, results_dir / "serving.json")
    lines = [f"HTTP serving of per-role views (scale={BENCH_SCALE}, "
             f"{NUM_REQUESTS} requests/config)"]
    for label in ("cold_cache", "warm_cache", "response_cache"):
        stats = record[label]
        lines.append(
            f"{label}\t{stats['requests_per_second']:.0f} req/s"
            f"\tp50 {stats['latency_ms']['p50']:.2f} ms"
            f"\tp99 {stats['latency_ms']['p99']:.2f} ms"
        )
    revalidation = record["response_cache"]["revalidation_304"]
    lines.append(
        f"revalidation_304\t{revalidation['requests_per_second']:.0f} req/s"
        f"\tp50 {revalidation['latency_ms']['p50']:.2f} ms"
        f"\tp99 {revalidation['latency_ms']['p99']:.2f} ms"
    )
    overload = record["overload"]
    lines.append(
        f"overload_2x\tshed {overload['shed_rate']:.0%} of {overload['requests']}"
        f"\tp50 {overload['served_latency_ms']['p50']:.2f} ms"
        f"\tp99 {overload['served_latency_ms']['p99']:.2f} ms"
    )
    for cell_key, cell in record["grid"]["cells"].items():
        lines.append(
            f"grid {cell_key}\t{cell['requests_per_second']:.0f} req/s"
            f"\t304s {cell['etag_hit_rate']:.0%}"
            f"\tp99 {cell['latency_ms']['p99']:.2f} ms"
        )
    save_text(results_dir / "serving.txt", "\n".join(lines))
    print("\n" + "\n".join(lines[1:]))

    # The warm cache skipped (almost) every re-parse...
    assert record["warm_cache"]["cache"]["hits"] >= NUM_REQUESTS - len(policy.roles())
    # ...so warm serving must not be materially slower than cold.
    assert (
        record["warm_cache"]["requests_per_second"]
        >= 0.5 * record["cold_cache"]["requests_per_second"]
    )
    # At 2x saturation the server must shed rather than queue — and the
    # requests it accepts must still all complete.
    assert record["overload"]["shed"] >= 1
    assert record["overload"]["served"] >= 1
    assert record["overload"]["server_stats"]["shed"] == record["overload"]["shed"]

    # The response byte cache must beat the serialise-every-request warm
    # baseline: a warm cached GET does zero serialisation and zero store
    # reads, so losing to the baseline means the cache is broken.
    assert (
        record["response_cache"]["requests_per_second"]
        >= record["warm_cache"]["requests_per_second"]
    )
    # 304 throughput is recorded but not ranked against the 200 path: on
    # loopback with small bodies the round-trip (and urllib's exception-path
    # handling of 304) dominates, so the revalidation win is bytes saved,
    # not closed-loop latency.
    assert revalidation["requests"] == NUM_REQUESTS
    served_gets = record["response_cache"]["server_stats"]["cache"]["hits"]
    assert served_gets >= NUM_REQUESTS  # warm requests all hit the byte cache
    assert record["response_cache"]["server_stats"]["gzip_responses"] >= 1
    assert record["response_cache"]["server_stats"]["etag_hits"] >= NUM_REQUESTS

    # The fleet speedup assertion is honest about its preconditions: it
    # needs real spare cores and SO_REUSEPORT.  Everything above has already
    # been recorded and asserted either way.
    cores = os.cpu_count() or 1
    if cores < MIN_CORES_FOR_FLEET_SPEEDUP or not reuseport_available():
        pytest.skip(
            f"fleet speedup recorded ({fleet_speedup:.2f}x) but the >= 2x "
            f"assertion needs >= {MIN_CORES_FOR_FLEET_SPEEDUP} cores and "
            f"SO_REUSEPORT (cores={cores})"
        )
    assert fleet_speedup >= 2.0, (
        f"expected >= 2x from {GRID_PROCESSES[-1]} SO_REUSEPORT processes on "
        f"{cores} cores, measured {fleet_speedup:.2f}x"
    )
