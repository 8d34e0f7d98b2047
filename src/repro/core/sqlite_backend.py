"""A single-file SQLite backend for the release store, with catalog columns.

:class:`SqliteBackend` is the release store's one durable backend.  It
implements the same seven-byte-method :class:`~repro.core.store.StoreBackend`
contract as the in-memory backend — ``put``/``get_document``/``get_answers``/
``exists``/``delete``/``keys``/``fingerprint`` — so every serving, cache and
fault-injection test runs against both.  On top of the raw bytes it
maintains *catalog columns* (dataset, mechanism, epsilon, released level
count, graph fingerprint, caller-supplied created-at) extracted from each
document at ``put`` time via :func:`repro.core.catalog.catalog_columns`,
which is what makes ``repro query`` an indexed SQL lookup instead of a
full-document scan.

Design points:

* **Schema versioning.**  A ``schema_version`` table records the applied
  version; :data:`MIGRATIONS` is the ordered in-code migration list, applied
  inside one transaction per migration on every open.  A v1 database (bytes
  only) upgraded by a v2 process gets its catalog columns backfilled from
  the stored documents — the upgrade path is itself under test.
* **WAL mode.**  ``journal_mode=WAL`` lets the multi-process serving fleet
  read concurrently with a writer; ``synchronous=NORMAL`` is safe in WAL
  (a torn write rolls back to the last committed transaction, which is
  exactly what the kill-9 crash test asserts).  Switching a new file to WAL
  is retried while another process holds the lock, so pool workers may all
  open one new path at once.
* **Fingerprints from a revision column.**  Every ``put`` stamps the row
  with the next value of a store-wide monotonic counter (kept in ``meta``,
  bumped inside the same transaction).  ``fingerprint()`` returns
  ``rev:{n}`` without touching the blobs, and because the counter never
  reuses a value — even across delete/re-put of the same key — the LRU and
  response caches never mistake new bytes for a cached entry.
* **No wall-clock reads.**  ``created_at`` is ``NULL`` unless the caller
  supplies a ``clock`` callable (the CLI passes one for interactive
  writes); the backend itself never reads time, keeping stored artefacts
  bit-reproducible under test.
* **Fork/thread safety.**  Each operation checks a connection out of a
  per-process idle pool and returns it afterwards, so no two threads ever
  use one connection at once, yet the serving layer's short-lived
  per-request threads reuse open handles instead of paying ~0.3 ms to open
  one per request.  The pool is keyed by pid, so a forked serving worker
  never shares its parent's connections.
"""

from __future__ import annotations

import os
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.core.catalog import ReleaseFilter, catalog_columns
from repro.core.store import PathLike, StoreBackend
from repro.exceptions import ReleaseIntegrityError

#: ``PRAGMA busy_timeout`` — how long a writer waits on a locked database
#: before failing, in milliseconds.  Generous: fleet workers contend rarely.
BUSY_TIMEOUT_MS = 10_000

#: Idle connections a process keeps for reuse; extras close on return.
MAX_IDLE_CONNECTIONS = 8


def _migration_1_initial(conn: sqlite3.Connection) -> None:
    """v1: raw byte storage + the monotonic revision counter."""
    conn.execute(
        """
        CREATE TABLE releases (
            key        TEXT PRIMARY KEY,
            document   BLOB NOT NULL,
            answers    BLOB NOT NULL,
            revision   INTEGER NOT NULL,
            created_at TEXT
        )
        """
    )
    conn.execute("CREATE TABLE meta (name TEXT PRIMARY KEY, value INTEGER NOT NULL)")
    conn.execute("INSERT INTO meta (name, value) VALUES ('revision', 0)")


def _migration_2_catalog_columns(conn: sqlite3.Connection) -> None:
    """v2: extracted catalog columns + backfill of pre-catalog rows.

    The backfill runs the same extraction as a fresh ``put``, so a store
    created at schema v1 answers catalog queries identically to one written
    at v2 from the start.
    """
    conn.execute("ALTER TABLE releases ADD COLUMN dataset TEXT")
    conn.execute("ALTER TABLE releases ADD COLUMN mechanism TEXT")
    conn.execute("ALTER TABLE releases ADD COLUMN epsilon REAL")
    conn.execute("ALTER TABLE releases ADD COLUMN levels INTEGER")
    conn.execute("ALTER TABLE releases ADD COLUMN graph_fingerprint TEXT")
    conn.execute(
        "CREATE INDEX idx_releases_catalog ON releases (mechanism, epsilon)"
    )
    for key, document in conn.execute("SELECT key, document FROM releases").fetchall():
        try:
            columns = catalog_columns(bytes(document))
        except ReleaseIntegrityError:
            continue  # unparseable document: leave its catalog columns NULL
        conn.execute(
            "UPDATE releases SET dataset = ?, mechanism = ?, epsilon = ?,"
            " levels = ?, graph_fingerprint = ? WHERE key = ?",
            (
                columns["dataset"],
                columns["mechanism"],
                columns["epsilon"],
                columns["levels"],
                columns["graph"],
                key,
            ),
        )


#: Ordered migration list: ``(target_version, apply(conn))``.  Applied in
#: order on open for every version above the database's recorded one, each
#: inside its own transaction (the version bump commits with the DDL).
MIGRATIONS = (
    (1, _migration_1_initial),
    (2, _migration_2_catalog_columns),
)

SCHEMA_VERSION = MIGRATIONS[-1][0]


class SqliteBackend(StoreBackend):
    """Release storage in one SQLite file, queryable by catalog columns.

    Parameters
    ----------
    path:
        The database file; parent directories are created, the schema is
        created/migrated on open.
    clock:
        Optional zero-argument callable returning the ``created_at`` string
        stamped on each ``put`` (e.g. :func:`repro.core.catalog.system_clock`).
        ``None`` (the default) stores ``NULL`` — the backend never reads the
        wall clock itself.
    """

    def __init__(self, path: PathLike, clock: Optional[Callable[[], str]] = None):
        self.path = Path(path)
        self.root = self.path  # fleet/publisher hand this to worker processes
        self._clock = clock
        self._idle: List[sqlite3.Connection] = []
        self._idle_pid = os.getpid()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._migrate()

    # -- connection management ----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False: a pooled connection moves between
        # threads, but _connection() hands it to one thread at a time.
        conn = sqlite3.connect(
            str(self.path), timeout=BUSY_TIMEOUT_MS / 1000, check_same_thread=False
        )
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        _enable_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        # Explicit transaction control: BEGIN IMMEDIATE in put(), not the
        # driver's lazy autocommit-ish statement batching.
        conn.isolation_level = None
        return conn

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """Check a connection out of this process's idle pool for one operation."""
        pid = os.getpid()
        if self._idle_pid != pid:
            # Forked: drop (never close) the parent's connections.  The pid
            # is written last, so a thread that sees the new pid also sees
            # the new pool.
            self._idle = []
            self._idle_pid = pid
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connect()
        try:
            yield conn
        finally:
            if len(self._idle) < MAX_IDLE_CONNECTIONS and self._idle_pid == pid:
                self._idle.append(conn)
            else:
                conn.close()

    def close(self) -> None:
        """Close this process's idle connections (the next call reopens one)."""
        if self._idle_pid == os.getpid():
            while self._idle:
                self._idle.pop().close()

    # -- schema --------------------------------------------------------
    def _migrate(self) -> None:
        with self._connection() as conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS schema_version (version INTEGER NOT NULL)"
            )
            row = conn.execute("SELECT MAX(version) FROM schema_version").fetchone()
            current = row[0] if row and row[0] is not None else 0
            if current > SCHEMA_VERSION:
                raise ReleaseIntegrityError(
                    f"store {self.path} has schema version {current}, newer than this "
                    f"code understands ({SCHEMA_VERSION}); refusing to open"
                )
            for version, apply in MIGRATIONS:
                if version <= current:
                    continue
                conn.execute("BEGIN IMMEDIATE")
                try:
                    # Re-check under the write lock: another process may have
                    # migrated between our read and our BEGIN.
                    row = conn.execute("SELECT MAX(version) FROM schema_version").fetchone()
                    if (row[0] or 0) >= version:
                        conn.execute("ROLLBACK")
                        continue
                    apply(conn)
                    conn.execute("INSERT INTO schema_version (version) VALUES (?)", (version,))
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise

    def _fetchone(self, sql: str, params: tuple = ()) -> Optional[tuple]:
        with self._connection() as conn:
            return conn.execute(sql, params).fetchone()

    def schema_version(self) -> int:
        """The applied schema version (for tests and diagnostics)."""
        row = self._fetchone("SELECT MAX(version) FROM schema_version")
        return int(row[0] or 0)

    # -- StoreBackend --------------------------------------------------
    def put(self, key: str, document: bytes, answers: bytes) -> None:
        try:
            columns = catalog_columns(document)
        except ReleaseIntegrityError:
            # Foreign bytes (tests store b"not json" deliberately): keep the
            # byte contract, leave the catalog columns NULL.
            columns = {
                "dataset": None,
                "mechanism": None,
                "epsilon": None,
                "levels": None,
                "graph": None,
            }
        created_at = self._clock() if self._clock is not None else None
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute("UPDATE meta SET value = value + 1 WHERE name = 'revision'")
                revision = conn.execute(
                    "SELECT value FROM meta WHERE name = 'revision'"
                ).fetchone()[0]
                conn.execute(
                    """
                    INSERT OR REPLACE INTO releases
                        (key, document, answers, revision, created_at,
                         dataset, mechanism, epsilon, levels, graph_fingerprint)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        key,
                        sqlite3.Binary(document),
                        sqlite3.Binary(answers),
                        revision,
                        created_at,
                        columns["dataset"],
                        columns["mechanism"],
                        columns["epsilon"],
                        columns["levels"],
                        columns["graph"],
                    ),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def get_document(self, key: str) -> bytes:
        row = self._fetchone("SELECT document FROM releases WHERE key = ?", (key,))
        if row is None:
            raise KeyError(key)
        return bytes(row[0])

    def get_answers(self, key: str) -> Optional[bytes]:
        row = self._fetchone("SELECT answers FROM releases WHERE key = ?", (key,))
        return bytes(row[0]) if row is not None else None

    def exists(self, key: str) -> bool:
        return self._fetchone("SELECT 1 FROM releases WHERE key = ?", (key,)) is not None

    def delete(self, key: str) -> None:
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.execute("DELETE FROM releases WHERE key = ?", (key,))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def keys(self) -> List[str]:
        with self._connection() as conn:
            return [row[0] for row in conn.execute("SELECT key FROM releases ORDER BY key")]

    def fingerprint(self, key: str) -> Optional[str]:
        row = self._fetchone("SELECT revision FROM releases WHERE key = ?", (key,))
        return f"rev:{row[0]}" if row is not None else None

    def describe(self) -> str:
        return str(self.path)

    # -- catalog -------------------------------------------------------
    def query_catalog(self, release_filter: ReleaseFilter) -> List[Dict[str, object]]:
        """Catalog rows matching ``release_filter``, straight from SQL.

        The indexed path behind :class:`~repro.core.catalog.ReleaseCatalog`:
        no document blob is read, the filter compiles to a parameterized
        WHERE clause, and rows come back in the same shape and order as the
        full-scan fallback.
        """
        where, params = release_filter.sql_where()
        with self._connection() as conn:
            rows = conn.execute(
                "SELECT key, dataset, mechanism, epsilon, levels, graph_fingerprint,"
                f" created_at FROM releases{where} ORDER BY key",
                params,
            ).fetchall()
        return [
            {
                "key": row[0],
                "dataset": row[1],
                "mechanism": row[2],
                "epsilon": row[3],
                "levels": row[4],
                "graph": row[5],
                "created_at": row[6],
            }
            for row in rows
        ]


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL, waiting out concurrent first opens.

    Moving a new (rollback-journal) file to WAL writes its header under a
    write lock.  When another connection holds that lock — a second process
    opening the same new path — SQLite fails the switch at once with
    ``database is locked`` instead of calling the busy handler, so the
    switch is retried here for up to :data:`BUSY_TIMEOUT_MS`.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "database is locked" not in str(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(0.005)
