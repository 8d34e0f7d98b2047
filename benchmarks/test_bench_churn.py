"""Churn benchmark: incremental re-disclosure of a live, mutating graph.

Three sections, all on the benchmark-scale DBLP-like graph:

* **delta_compile** — compile the :class:`~repro.graphs.arrays.GraphArrays`
  view once, apply a small mutation batch (≤ 1% of the edges), and time
  :meth:`GraphArrays.delta_compile` against a full recompile of the mutated
  graph.  The patched view is asserted bit-identical to the full compile
  (same invariant the hypothesis parity suite proves on random graphs), and
  the speedup is asserted ≥ 5x — the point of the delta path.
* **refresh** — disclose once, mutate, then time
  :meth:`~repro.core.discloser.MultiLevelDiscloser.refresh` against a
  from-scratch disclosure of the mutated graph.  A no-op refresh (nothing
  changed) reuses every level and is asserted ≥ 5x faster than a full
  disclosure; a real mutation's refresh skips specialization and reuses
  whatever levels its fingerprints allow, and is asserted no slower.  Both
  refreshed releases are asserted bit-identical to the same-seed
  from-scratch disclosure (the parity contract of ``tests/test_refresh.py``).
* **churn** — a publisher thread applies a sustained stream of edge
  mutations (recompiling the arrays incrementally every batch) while a
  :class:`~repro.serving.ServerFleet` serves metadata and view reads from
  the store; afterwards one ``refresh`` republishes the live key and the
  served metadata is asserted fresh (``staleness.stale == false``).  The
  section records sustained **mutations/sec** alongside the concurrent
  reads/sec.

Results go to ``benchmarks/results/churn.json`` / ``churn.txt``.  Only
ratios and sanity are asserted — absolute numbers are hardware-bound.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, save_text
from repro.accounting.budget import PrivacyBudget
from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.publisher import GraphPublisher
from repro.core.store import ReleaseStore
from repro.graphs.arrays import GraphArrays
from repro.grouping.specialization import SpecializationConfig
from repro.serving import ServerFleet, fetch_json, http_get
from repro.utils.serialization import to_json_file

#: Fraction of the edge count mutated by the delta-compile batch (the
#: acceptance bound: delta must win by >= 5x at <= 1% churn).
DELTA_BATCH_FRACTION = 0.01

#: Timing repetitions per compile variant (minimum is reported).
TIMING_REPEATS = 3

#: Required delta-compile speedup at the small-batch operating point.
MIN_DELTA_SPEEDUP = 5.0

#: Required speedup of a no-op refresh (every level reused) over a full
#: from-scratch disclosure.
MIN_NOOP_REFRESH_SPEEDUP = 5.0

#: Hierarchy depth of the refresh/churn sections (smaller than Figure 1's 9
#: so the serving store stays light while still exercising level reuse).
NUM_LEVELS = 5

#: Wall-clock seconds the churn section sustains mutations under read load.
CHURN_DURATION = 5.0

#: Mutations applied per incremental-recompile batch in the churn loop.
CHURN_BATCH = 50

#: Closed-loop reader threads hammering the fleet during churn.
CHURN_READERS = 2


def _assert_views_identical(delta: GraphArrays, full: GraphArrays) -> None:
    assert delta.left_ids == full.left_ids
    assert delta.right_ids == full.right_ids
    for attr in (
        "edge_left",
        "edge_right",
        "left_indptr",
        "left_degrees",
        "right_degrees",
    ):
        assert np.array_equal(getattr(delta, attr), getattr(full, attr)), attr
        assert getattr(delta, attr).dtype == getattr(full, attr).dtype, attr


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _mutation_batch(graph, rng, size: int) -> List[tuple]:
    """``size`` (left, right) pairs not currently associated."""
    lefts = list(graph.left_nodes())
    rights = list(graph.right_nodes())
    batch = []
    while len(batch) < size:
        left = lefts[int(rng.integers(len(lefts)))]
        right = rights[int(rng.integers(len(rights)))]
        if not graph.has_association(left, right):
            batch.append((left, right))
    return batch


def _bench_delta_compile(bench_graph, rng) -> Dict[str, object]:
    graph = bench_graph.copy()
    old = graph.arrays()
    batch_size = max(1, int(graph.num_associations() * DELTA_BATCH_FRACTION))
    for left, right in _mutation_batch(graph, rng, batch_size):
        graph.add_association(left, right)

    delta_s = _best_of(TIMING_REPEATS, lambda: GraphArrays.delta_compile(old, graph))
    full_s = _best_of(TIMING_REPEATS, lambda: GraphArrays.compile(graph))
    delta = GraphArrays.delta_compile(old, graph)
    full = GraphArrays.compile(graph)
    _assert_views_identical(delta, full)
    assert delta.compiled_incrementally

    speedup = full_s / delta_s if delta_s > 0 else float("inf")
    assert speedup >= MIN_DELTA_SPEEDUP, (
        f"delta_compile only {speedup:.1f}x faster than full compile "
        f"({delta_s * 1e3:.2f} ms vs {full_s * 1e3:.2f} ms) for a "
        f"{batch_size}-edge batch"
    )
    return {
        "edges": graph.num_associations(),
        "batch_edges": batch_size,
        "full_compile_ms": round(full_s * 1e3, 3),
        "delta_compile_ms": round(delta_s * 1e3, 3),
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }


def _bench_refresh(bench_graph, rng) -> Dict[str, object]:
    graph = bench_graph.copy()
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=NUM_LEVELS)
    )
    discloser = MultiLevelDiscloser(config=config, rng=BENCH_SEED)
    hierarchy = discloser.build_hierarchy(graph)
    release = discloser.disclose(graph, hierarchy=hierarchy)

    full_s = _best_of(
        1, lambda: MultiLevelDiscloser(config=config, rng=BENCH_SEED).disclose(graph)
    )
    noop_s = _best_of(1, lambda: discloser.refresh(release, graph, hierarchy=hierarchy))
    noop = discloser.refresh(release, graph, hierarchy=hierarchy)
    assert noop.affected_levels == []

    for left, right in _mutation_batch(graph, rng, CHURN_BATCH):
        graph.add_association(left, right)
    refresh_s = _best_of(1, lambda: discloser.refresh(release, graph, hierarchy=hierarchy))
    refreshed = discloser.refresh(release, graph, hierarchy=hierarchy)
    # Parity: the refreshed release equals a same-seed from-scratch
    # disclosure of the mutated graph (modulo lineage provenance).
    expected = MultiLevelDiscloser(config=config, rng=BENCH_SEED).disclose(
        graph, hierarchy=hierarchy
    )
    refreshed_doc = refreshed.release.to_dict()
    expected_doc = expected.to_dict()
    refreshed_doc.pop("provenance")
    expected_doc.pop("provenance")
    assert refreshed_doc == expected_doc

    noop_speedup = full_s / noop_s if noop_s > 0 else float("inf")
    assert noop_speedup >= MIN_NOOP_REFRESH_SPEEDUP, (
        f"no-op refresh only {noop_speedup:.1f}x faster than full disclosure"
    )
    return {
        "levels": NUM_LEVELS,
        "full_disclose_ms": round(full_s * 1e3, 3),
        "noop_refresh_ms": round(noop_s * 1e3, 3),
        "noop_speedup": round(noop_speedup, 2),
        "mutated_refresh_ms": round(refresh_s * 1e3, 3),
        "mutated_speedup": round(full_s / refresh_s, 2) if refresh_s > 0 else None,
        "affected_levels": refreshed.affected_levels,
        "reused_levels": refreshed.reused_levels,
        "parity": True,
    }


def _bench_churn_while_serving(bench_graph, rng, tmp_path) -> Dict[str, object]:
    graph = bench_graph.copy()
    publisher = GraphPublisher(
        graph,
        total_budget=PrivacyBudget(epsilon=1000.0, delta=1e-2),
        base_config=DisclosureConfig(
            epsilon_g=0.5, specialization=SpecializationConfig(num_levels=NUM_LEVELS)
        ),
        rng=BENCH_SEED,
    )
    release = publisher.release()
    store_path = tmp_path / "churn-store.db"
    store = ReleaseStore(store_path)
    store.save(release, key="live")
    policy = AccessPolicy({"public": min(2, NUM_LEVELS - 2)}, top_level=NUM_LEVELS)

    reads = {"count": 0, "errors": 0}
    reads_lock = threading.Lock()
    stop = threading.Event()

    with ServerFleet(store_path, policy, port=0, processes=2) as fleet:

        def reader() -> None:
            routes = ("/releases/live", "/releases/live/views/public")
            i = 0
            while not stop.is_set():
                status, _ = http_get(fleet.url + routes[i % len(routes)])
                with reads_lock:
                    reads["count"] += 1
                    if status != 200:
                        reads["errors"] += 1
                i += 1

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(CHURN_READERS)]
        for thread in threads:
            thread.start()

        mutations = 0
        start = time.perf_counter()
        while time.perf_counter() - start < CHURN_DURATION:
            for left, right in _mutation_batch(graph, rng, CHURN_BATCH):
                graph.add_association(left, right)
            mutations += CHURN_BATCH
            graph.arrays()  # incremental recompile keeps the view hot
        elapsed = time.perf_counter() - start

        result = publisher.refresh(release=release, store=store, key="live")
        metadata = fetch_json(fleet.url, "/releases/live")
        fleet_processes = fleet.processes
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)

    assert metadata["staleness"]["stale"] is False
    assert metadata["provenance"]["graph_revision"] == graph.revision
    assert reads["count"] > 0 and reads["errors"] == 0
    assert mutations / elapsed > 0

    return {
        "duration_s": round(elapsed, 2),
        "mutations": mutations,
        "mutations_per_sec": round(mutations / elapsed, 1),
        "concurrent_reads": reads["count"],
        "reads_per_sec": round(reads["count"] / elapsed, 1),
        "read_errors": reads["errors"],
        "fleet_processes": fleet_processes,
        "refresh_affected_levels": result.affected_levels,
        "staleness_cleared": True,
    }


@pytest.mark.slow
def test_bench_churn(bench_graph, results_dir, tmp_path):
    rng = np.random.default_rng(BENCH_SEED)
    results: Dict[str, object] = {
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "graph": {
            "left": bench_graph.num_left(),
            "right": bench_graph.num_right(),
            "edges": bench_graph.num_associations(),
        },
        "delta_compile": _bench_delta_compile(bench_graph, rng),
        "refresh": _bench_refresh(bench_graph, rng),
        "churn": _bench_churn_while_serving(bench_graph, rng, tmp_path),
    }

    to_json_file(results, results_dir / "churn.json")
    lines = [
        f"churn benchmark (scale={BENCH_SCALE}, seed={BENCH_SEED})",
        json.dumps(results, indent=2, sort_keys=True),
    ]
    save_text(results_dir / "churn.txt", "\n".join(lines))
