"""Catalog query cost: indexed SQL vs full-scan, as the store grows.

Seeds a SQLite store with many releases (one small release re-put under
many keys with varying epsilons, so seeding is cheap but the catalog is
wide), then times a selective :class:`~repro.core.catalog.ReleaseFilter`
through :class:`~repro.core.catalog.ReleaseCatalog` two ways on that same
store:

* **sqlite** — :meth:`ReleaseCatalog.rows`, i.e. the backend's
  ``query_catalog`` path: one parameterized ``SELECT`` over the extracted
  catalog columns, no document blobs read;
* **scan** — :func:`scan`, the baseline: read and parse every stored
  document, filter in Python.

The benchmark asserts only sanity — both paths return identical rows and
the indexed path is no slower than the scan at the largest store size —
because absolute numbers are hardware-bound.  Results go to
``benchmarks/results/store_query.json`` / ``store_query.txt``.
"""

from __future__ import annotations

import fnmatch
import json
import time
from typing import Dict, List

import pytest

from benchmarks.conftest import BENCH_SEED, save_text
from repro.core.catalog import ReleaseCatalog, ReleaseFilter, catalog_row
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import ReleaseStore
from repro.datasets.dblp_like import generate_dblp_like
from repro.grouping.specialization import SpecializationConfig

pytestmark = pytest.mark.slow

STORE_SIZES = (16, 64, 256)
QUERY_REPEATS = 5


def _seed_store(tmp_path, num_releases):
    """A SQLite store with `num_releases` catalog rows."""
    release = MultiLevelDiscloser(
        DisclosureConfig(
            epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
        ),
        rng=BENCH_SEED,
    ).disclose(generate_dblp_like(num_authors=120, seed=BENCH_SEED))
    document = release.to_dict()

    store = ReleaseStore(tmp_path / f"catalog-{num_releases}.db")
    # Vary epsilon in the stored document so the filter is selective
    # (~1/4 of rows match) without paying for fresh disclosures.
    for index in range(num_releases):
        document["config"]["epsilon_g"] = 0.25 * (1 + index % 4)
        from repro.core.release import MultiLevelRelease

        variant = MultiLevelRelease.from_dict(document)
        store.save(variant, key=f"bench-{index:04d}")
    return store


def scan(store, release_filter):
    """The full-scan baseline: parse every document, filter in Python."""
    rows = []
    for key in store.keys():
        row = catalog_row(key, store.backend.get_document(key))
        if (
            release_filter.mechanism in (None, row["mechanism"])
            and release_filter.epsilon in (None, row["epsilon"])
            and release_filter.graph in (None, row["graph"])
            and (
                release_filter.key_glob is None
                or fnmatch.fnmatchcase(key, release_filter.key_glob)
            )
            and release_filter.since is None  # the seeded stores have no clock
        ):
            rows.append(row)
    return rows


def _time_rows(query, release_filter):
    best = float("inf")
    rows = None
    for _ in range(QUERY_REPEATS):
        start = time.perf_counter()
        rows = query(release_filter)
        best = min(best, time.perf_counter() - start)
    return rows, best


class TestStoreQueryBench:
    def test_indexed_query_vs_full_scan(self, tmp_path, results_dir):
        release_filter = ReleaseFilter(epsilon=0.5, key_glob="bench-*")
        table: List[Dict] = []
        for size in STORE_SIZES:
            store = _seed_store(tmp_path, size)
            sql_rows, sql_time = _time_rows(ReleaseCatalog(store).rows, release_filter)
            scan_rows, scan_time = _time_rows(
                lambda release_filter: scan(store, release_filter), release_filter
            )
            assert sql_rows == scan_rows  # parity before performance
            assert len(sql_rows) == size // 4
            table.append(
                {
                    "releases": size,
                    "matching": len(sql_rows),
                    "sqlite_ms": round(sql_time * 1e3, 3),
                    "scan_ms": round(scan_time * 1e3, 3),
                    "speedup": round(scan_time / sql_time, 1),
                }
            )

        # The indexed path reads no blobs; by the largest size it must not
        # lose to parsing every document.
        assert table[-1]["sqlite_ms"] <= table[-1]["scan_ms"]

        (results_dir / "store_query.json").write_text(
            json.dumps(table, indent=2) + "\n", encoding="utf-8"
        )
        lines = ["releases  matching  sqlite_ms  scan_ms  speedup"]
        for row in table:
            lines.append(
                f"{row['releases']:>8}  {row['matching']:>8}"
                f"  {row['sqlite_ms']:>9}  {row['scan_ms']:>7}  {row['speedup']:>6}x"
            )
        save_text(results_dir / "store_query.txt", "\n".join(lines))
