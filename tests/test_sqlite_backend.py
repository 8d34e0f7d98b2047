"""Tests for the SQLite store backend: path handling, the race-free first
open, schema migrations (with the v1 → v2 catalog and v2 → v3 lineage
backfills), WAL crash-safety under kill -9 (reusing the
:class:`KillWorkerFault` toolkit), monotonic revision fingerprints, and the
SQL catalog path's agreement with a document-parsing oracle."""

import fnmatch
import multiprocessing
import sqlite3
import sys
import threading

import pytest

from repro.core.catalog import (
    ReleaseCatalog,
    ReleaseFilter,
    catalog_columns,
    catalog_row,
    graph_fingerprint,
)
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.sqlite_backend import SqliteBackend
from repro.core import sqlite_backend as sqlite_backend_module
from repro.core.store import ReleaseStore
from repro.exceptions import ReleaseIntegrityError, ValidationError
from repro.grouping.specialization import SpecializationConfig


@pytest.fixture(scope="module")
def release(dblp_graph):
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config, rng=11).disclose(dblp_graph)


@pytest.fixture(scope="module")
def laplace_release(dblp_graph):
    config = DisclosureConfig(
        epsilon_g=1.0,
        mechanism="laplace",
        specialization=SpecializationConfig(num_levels=4),
    )
    return MultiLevelDiscloser(config, rng=11).disclose(dblp_graph)


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "releases.db"


class TestPathDetection:
    def test_db_suffix_selects_sqlite_even_before_the_file_exists(self, db_path):
        assert not db_path.exists()
        store = ReleaseStore(db_path)
        assert isinstance(store.backend, SqliteBackend)

    def test_magic_header_detected_whatever_the_name(self, tmp_path, release):
        oddly_named = tmp_path / "releases.store"
        seed = ReleaseStore(tmp_path / "seed.db")
        seed.save(release, key="k")
        # Fold the WAL into the main file so a byte copy is self-contained.
        with seed.backend._connection() as conn:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        seed.backend.close()
        oddly_named.write_bytes((tmp_path / "seed.db").read_bytes())
        assert oddly_named.read_bytes().startswith(b"SQLite format 3\x00")
        assert ReleaseStore(oddly_named).keys() == ["k"]

    def test_suffixless_path_opens_a_sqlite_store(self, tmp_path):
        store = ReleaseStore(tmp_path / "releases")
        assert isinstance(store.backend, SqliteBackend)
        assert (tmp_path / "releases").is_file()

    def test_existing_directory_is_refused_with_the_import_hint(self, tmp_path):
        legacy = tmp_path / "releases.db"
        legacy.mkdir()
        with pytest.raises(ValidationError) as excinfo:
            ReleaseStore(legacy)
        assert str(legacy) in str(excinfo.value)
        assert "import_directory_store" in str(excinfo.value)


def _open_behind_barrier(path, barrier, lane, errors):
    barrier.wait()
    try:
        backend = SqliteBackend(path)
        backend.put(f"lane-{lane}", b"{}", b"npz")
        backend.close()
    except Exception as error:  # reported to the parent
        errors.put(repr(error))
    else:
        errors.put(None)


class TestFirstOpenRace:
    """Several processes opening one *new* path at once must all succeed.

    Switching a fresh file to WAL takes a write lock, and SQLite fails the
    losers of that race with ``database is locked`` without waiting — so a
    process-pool sweep whose workers all create the store used to lose
    combinations.
    """

    TRIALS = 50
    PROCESSES = 4

    def test_concurrent_first_opens_all_succeed(self, tmp_path):
        failed_trials = []
        for trial in range(self.TRIALS):
            path = tmp_path / f"trial-{trial}.db"
            barrier = multiprocessing.Barrier(self.PROCESSES)
            errors = multiprocessing.Queue()
            workers = [
                multiprocessing.Process(
                    target=_open_behind_barrier, args=(path, barrier, lane, errors)
                )
                for lane in range(self.PROCESSES)
            ]
            for worker in workers:
                worker.start()
            outcomes = [errors.get(timeout=60) for _ in workers]
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
            failures = [outcome for outcome in outcomes if outcome is not None]
            if failures:
                failed_trials.append((trial, failures[0]))
            else:
                backend = SqliteBackend(path)
                assert backend.keys() == [f"lane-{lane}" for lane in range(self.PROCESSES)]
                backend.close()
        assert failed_trials == []

    def test_wal_switch_waits_for_a_held_write_lock(self, db_path):
        """Deterministic form of the race: a rollback-journal writer holds
        the lock the WAL switch needs; the open waits instead of failing."""
        holder = sqlite3.connect(str(db_path), isolation_level=None, check_same_thread=False)
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("CREATE TABLE unrelated (x)")
        release_lock = threading.Timer(0.3, lambda: holder.execute("COMMIT"))
        release_lock.start()
        try:
            backend = SqliteBackend(db_path)
        finally:
            release_lock.join()
            holder.close()
        assert backend.schema_version() == sqlite_backend_module.SCHEMA_VERSION
        assert backend._fetchone("PRAGMA journal_mode") == ("wal",)


class TestSchemaMigrations:
    def test_fresh_store_is_at_the_latest_version(self, db_path):
        backend = SqliteBackend(db_path)
        assert backend.schema_version() == sqlite_backend_module.SCHEMA_VERSION

    def test_reopen_is_idempotent(self, db_path, release):
        ReleaseStore(db_path).save(release, key="k")
        again = ReleaseStore(db_path)
        assert again.keys() == ["k"]
        assert again.load("k").to_dict() == release.to_dict()

    def test_v1_database_is_upgraded_and_backfilled(self, db_path, release):
        """A database created at schema v1 (bytes only, no catalog columns)
        must upgrade on open and answer catalog queries identically to a
        store written at v2 from the start."""
        seed = ReleaseStore.in_memory()
        key = seed.save(release, key="legacy")
        document = seed.backend.get_document(key)
        answers = seed.backend.get_answers(key)

        conn = sqlite3.connect(str(db_path))
        conn.execute("CREATE TABLE schema_version (version INTEGER NOT NULL)")
        sqlite_backend_module._migration_1_initial(conn)
        conn.execute("INSERT INTO schema_version (version) VALUES (1)")
        conn.execute("UPDATE meta SET value = 1 WHERE name = 'revision'")
        conn.execute(
            "INSERT INTO releases (key, document, answers, revision, created_at)"
            " VALUES (?, ?, ?, 1, NULL)",
            (key, sqlite3.Binary(document), sqlite3.Binary(answers)),
        )
        conn.commit()
        conn.close()

        backend = SqliteBackend(db_path)
        assert backend.schema_version() == sqlite_backend_module.SCHEMA_VERSION
        (row,) = backend.query_catalog(ReleaseFilter())
        assert row == catalog_row(key, document, created_at=None)
        assert row["mechanism"] == "gaussian"
        assert row["epsilon"] == 0.5

    def test_v2_database_is_upgraded_and_lineage_backfilled(
        self, db_path, release, tmp_path
    ):
        """A database written at schema v2 (catalog columns, no lineage
        columns) upgrades to v3, and its staleness verdicts then match a
        store written at v3 from the start."""
        from repro.core.release import MultiLevelRelease
        from repro.serving import StalenessIndex

        current = ReleaseStore(tmp_path / "current.db")
        for key, revision, affected in (("live", 10, []), ("live-r13", 13, [1, 2])):
            clone = MultiLevelRelease.from_dict(release.to_dict())
            clone.provenance = dict(release.provenance)
            clone.provenance["graph_revision"] = revision
            clone.provenance["affected_levels"] = affected
            current.save(clone, key=key)

        conn = sqlite3.connect(str(db_path))
        conn.execute("CREATE TABLE schema_version (version INTEGER NOT NULL)")
        sqlite_backend_module._migration_1_initial(conn)
        sqlite_backend_module._migration_2_catalog_columns(conn)
        conn.execute("INSERT INTO schema_version (version) VALUES (1), (2)")
        for revision, key in enumerate(current.keys(), start=1):
            document = current.backend.get_document(key)
            columns = catalog_columns(document)  # what a v2 put extracted
            conn.execute(
                "INSERT INTO releases (key, document, answers, revision, dataset,"
                " mechanism, epsilon, levels, graph_fingerprint)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    sqlite3.Binary(document),
                    sqlite3.Binary(current.backend.get_answers(key)),
                    revision,
                    columns["dataset"],
                    columns["mechanism"],
                    columns["epsilon"],
                    columns["levels"],
                    columns["graph"],
                ),
            )
        conn.execute("UPDATE meta SET value = 2 WHERE name = 'revision'")
        conn.commit()
        conn.close()

        upgraded = ReleaseStore(db_path)
        assert upgraded.backend.schema_version() == 3
        for key in ("live", "live-r13"):
            assert StalenessIndex(upgraded).staleness_for(key) == StalenessIndex(
                current
            ).staleness_for(key)
        assert StalenessIndex(upgraded).staleness_for("live")["affected_levels"] == 2
        assert StalenessIndex(upgraded).summary() == StalenessIndex(current).summary()

    def test_newer_schema_is_refused(self, db_path):
        SqliteBackend(db_path)
        conn = sqlite3.connect(str(db_path))
        conn.execute("INSERT INTO schema_version (version) VALUES (99)")
        conn.commit()
        conn.close()
        with pytest.raises(ReleaseIntegrityError, match="newer"):
            SqliteBackend(db_path)

    def test_wal_mode_is_on(self, db_path):
        backend = SqliteBackend(db_path)
        (mode,) = backend._fetchone("PRAGMA journal_mode")
        assert mode == "wal"


class TestRevisionFingerprints:
    def test_revisions_are_store_wide_monotonic(self, db_path, release):
        store = ReleaseStore(db_path)
        store.save(release, key="a")
        store.save(release, key="b")
        assert store.fingerprint("a") == "rev:1"
        assert store.fingerprint("b") == "rev:2"
        store.save(release, key="a")
        assert store.fingerprint("a") == "rev:3"

    def test_delete_and_reput_never_reuses_a_revision(self, db_path, release):
        store = ReleaseStore(db_path)
        store.save(release, key="a")
        first = store.fingerprint("a")
        store.delete("a")
        assert store.fingerprint("a") is None
        store.save(release, key="a")
        assert store.fingerprint("a") not in (None, first)


class TestForeignBytes:
    def test_unparseable_document_keeps_byte_contract_with_null_catalog(
        self, db_path
    ):
        """The backend contract is bytes-in bytes-out; catalog extraction
        must not make it reject non-JSON documents (fault-injection tests
        store garbage on purpose)."""
        backend = SqliteBackend(db_path)
        backend.put("junk", b"not json", b"not npz")
        assert backend.get_document("junk") == b"not json"
        assert backend.get_answers("junk") == b"not npz"
        (row,) = backend.query_catalog(ReleaseFilter())
        assert row["mechanism"] is None and row["epsilon"] is None

    def test_threaded_readers_each_get_their_own_connection(self, db_path, release):
        store = ReleaseStore(db_path)
        key = store.save(release, key="k")
        document = store.backend.get_document(key)
        failures = []

        def read():
            try:
                for _ in range(5):
                    assert store.backend.get_document(key) == document
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []


class TestConnectionPool:
    def test_short_lived_threads_reuse_pooled_connections(self, db_path, monkeypatch):
        """The serving layer runs one short-lived thread per request; each
        must reuse an open handle, not open its own database connection."""
        backend = SqliteBackend(db_path)
        backend.put("k", b"{}", b"npz")
        opened = []
        real_connect = backend._connect
        monkeypatch.setattr(backend, "_connect", lambda: opened.append(1) or real_connect())
        for _ in range(20):
            thread = threading.Thread(target=backend.fingerprint, args=("k",))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert opened == []

    def test_concurrent_writers_never_share_a_connection(self, db_path):
        """Stress: more writer threads than cores, switching as often as the
        interpreter allows.  A connection handed to two threads at once
        would nest ``BEGIN IMMEDIATE`` (an error) or lose a write."""
        backend = SqliteBackend(db_path)
        failures = []

        def write(lane):
            try:
                for index in range(15):
                    key = f"lane{lane}-{index}"
                    backend.put(key, b"{}", key.encode())
                    assert backend.get_answers(key) == key.encode()
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(lane,)) for lane in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        keys = backend.keys()
        assert len(keys) == 8 * 15
        assert len({backend.fingerprint(key) for key in keys}) == len(keys)


def _crashy_put_worker(db_path: str, document: bytes, answers: bytes) -> None:
    """Forked child: start a put transaction, die (kill -9 style) pre-COMMIT.

    Replays the backend's own put sequence — revision bump plus row upsert
    inside ``BEGIN IMMEDIATE`` — then dies via :class:`KillWorkerFault`
    (``os._exit``) with the transaction still open, which is what a power
    cut or OOM-kill mid-``put`` looks like to the database file.
    """
    from repro.execution.faults import KillWorkerFault

    backend = SqliteBackend(db_path)
    with backend._connection() as conn:
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("UPDATE meta SET value = value + 1 WHERE name = 'revision'")
        conn.execute(
            "INSERT OR REPLACE INTO releases"
            " (key, document, answers, revision, created_at,"
            "  dataset, mechanism, epsilon, levels, graph_fingerprint)"
            " VALUES ('victim', ?, ?, 1, NULL, NULL, NULL, NULL, NULL, NULL)",
            (sqlite3.Binary(document), sqlite3.Binary(answers)),
        )
        KillWorkerFault(attempts=(1,)).trigger(0, 1)  # os._exit: COMMIT never runs


class TestCrashSafety:
    def test_kill_nine_mid_put_rolls_back_and_retry_is_bit_identical(
        self, db_path, release, tmp_path
    ):
        """The satellite acceptance: a writer killed -9 mid-``put`` leaves a
        database that reopens clean, without the half-written release, and a
        retried ``put`` under the same key lands bit-identically."""
        seed = ReleaseStore.in_memory()
        seed.save(release, key="victim")
        document = seed.backend.get_document("victim")
        answers = seed.backend.get_answers("victim")

        SqliteBackend(db_path)  # create + migrate before the writer forks
        context = multiprocessing.get_context("fork")
        writer = context.Process(
            target=_crashy_put_worker, args=(str(db_path), document, answers)
        )
        writer.start()
        writer.join(timeout=30)
        assert writer.exitcode == 17  # KillWorkerFault's os._exit status

        # The database reopens clean and the half-written release is absent.
        store = ReleaseStore(db_path)
        assert store.keys() == []
        assert not store.exists("victim")
        assert store.fingerprint("victim") is None

        # A retried put under the same key succeeds, bit-identically.
        assert store.save(release, key="victim") == "victim"
        assert store.backend.get_document("victim") == document
        assert store.backend.get_answers("victim") == answers
        assert store.load("victim").to_dict() == release.to_dict()


def _oracle_rows(store, release_filter):
    """Catalog rows by parsing every stored document and filtering in
    Python, with :func:`fnmatch.fnmatchcase` as the meaning of a key glob."""
    rows = []
    for key in store.keys():
        row = catalog_row(key, store.backend.get_document(key))
        if release_filter.mechanism is not None and row["mechanism"] != release_filter.mechanism:
            continue
        if release_filter.epsilon is not None and row["epsilon"] != float(release_filter.epsilon):
            continue
        if release_filter.graph is not None and row["graph"] != release_filter.graph:
            continue
        if release_filter.key_glob is not None and not fnmatch.fnmatchcase(
            key, release_filter.key_glob
        ):
            continue
        if release_filter.since is not None:
            continue  # no seeded store has a clock, so no row has an age
        rows.append(row)
    return rows


class TestCatalogParity:
    """SQL catalog rows must equal the document-parsing oracle's, on file
    and in-memory stores alike."""

    @pytest.fixture
    def seeded(self, tmp_path, release, laplace_release):
        sqlite_store = ReleaseStore(tmp_path / "cat.db")
        memory_store = ReleaseStore.in_memory()
        for store in (sqlite_store, memory_store):
            store.save(release, key="gauss-half")
            store.save(laplace_release, key="laplace-one")
        return sqlite_store, memory_store

    @pytest.mark.parametrize(
        "release_filter",
        [
            ReleaseFilter(),
            ReleaseFilter(epsilon=0.5),
            ReleaseFilter(mechanism="laplace"),
            ReleaseFilter(mechanism="laplace", epsilon=0.5),  # conjunction: empty
            ReleaseFilter(key_glob="gauss-*"),
            ReleaseFilter(key_glob="*-o?e"),
            ReleaseFilter(key_glob="[gl]*"),
            ReleaseFilter(since="2020-01-01"),  # no clock: nothing matches
            ReleaseFilter(epsilon=99.0),
            # Shell negation: [!g] is "not g", not the set {!, g}.
            ReleaseFilter(key_glob="[!g]*"),
            ReleaseFilter(key_glob="*-[!h]*"),
            ReleaseFilter(key_glob="[!a-k]*"),
            # A leading ^ is a class member in the shell, not a negation.
            ReleaseFilter(key_glob="[^g]*"),
            ReleaseFilter(key_glob="[^gl]*"),
        ],
        ids=lambda f: repr(f)[:60],
    )
    def test_sql_and_scan_paths_agree(self, seeded, release_filter):
        for store in seeded:
            sql_rows = ReleaseCatalog(store).rows(release_filter)
            assert sql_rows == _oracle_rows(store, release_filter)

    @pytest.mark.parametrize("pattern", ["run-[!0]", "run-[^0]", "run-[", "run-[!"])
    def test_key_glob_keeps_its_shell_meaning(self, tmp_path, pattern):
        """``[!0]`` is "not 0" (SQLite alone reads it as {!, 0}), a leading
        ``^`` is a member, and an unclosed ``[`` is a literal."""
        store = ReleaseStore(tmp_path / "glob.db")
        for key in ("run-0", "run-1", "run-!", "run-^", "run-["):
            store.backend.put(key, b"{}", b"npz")
        release_filter = ReleaseFilter(key_glob=pattern)
        rows = ReleaseCatalog(store).rows(release_filter)
        expected = sorted(key for key in store.keys() if fnmatch.fnmatchcase(key, pattern))
        assert [row["key"] for row in rows] == expected

    def test_graph_filter_agrees_and_spans_mechanisms(self, seeded, release):
        fingerprint = graph_fingerprint(release.to_dict())
        release_filter = ReleaseFilter(graph=fingerprint)
        for store in seeded:
            sql_rows = ReleaseCatalog(store).rows(release_filter)
            assert sql_rows == _oracle_rows(store, release_filter)
            # Same graph + same specialization ⇒ same fingerprint for both
            # mechanisms, so the graph filter finds both releases.
            assert [row["key"] for row in sql_rows] == ["gauss-half", "laplace-one"]

    def test_clocked_store_supports_since(self, tmp_path, release):
        ticks = iter(["2026-01-01T00:00:00+00:00", "2026-06-01T00:00:00+00:00"])
        store = ReleaseStore(tmp_path / "clocked.db", clock=lambda: next(ticks))
        store.save(release, key="old")
        store.save(release, key="new")
        rows = ReleaseCatalog(store).rows(ReleaseFilter(since="2026-03-01"))
        assert [row["key"] for row in rows] == ["new"]
        assert rows[0]["created_at"] == "2026-06-01T00:00:00+00:00"

    def test_query_catalog_reads_no_document_blobs(self, seeded, monkeypatch):
        """The indexed path answers from catalog columns alone."""
        sqlite_store, _ = seeded

        def forbidden(key):
            raise AssertionError("query_catalog read a document blob")

        monkeypatch.setattr(sqlite_store.backend, "get_document", forbidden)
        rows = ReleaseCatalog(sqlite_store).rows(ReleaseFilter(epsilon=0.5))
        assert [row["key"] for row in rows] == ["gauss-half"]
