"""The release store's SQLite backend, with catalog and lineage columns.

:class:`SqliteBackend` is the backend of every
:class:`~repro.core.store.ReleaseStore`: a path opens one durable file, and
``SqliteBackend(None)`` (what :meth:`ReleaseStore.in_memory` opens) a
private in-memory database.  Besides the
:class:`~repro.core.store.StoreBackend` byte methods it keeps *catalog
columns* (dataset, mechanism, epsilon, released level count, graph
fingerprint, caller-supplied created-at) and *lineage columns* (the
provenance ``graph_revision`` and affected-level count), extracted from each
document at ``put`` time.  ``repro query`` and the serving layer's staleness
verdicts are indexed SQL over those columns; no document is re-read.

Design points:

* **Schema versioning.**  A ``schema_version`` table records the applied
  version; :data:`MIGRATIONS` is the ordered in-code migration list, applied
  inside one transaction per migration on every open.  Each migration that
  adds derived columns backfills them from the stored documents with the
  same extraction ``put`` uses, so an upgraded database answers every query
  like one written at the latest version.
* **WAL mode.**  ``journal_mode=WAL`` lets the multi-process serving fleet
  read concurrently with a writer; ``synchronous=NORMAL`` is safe in WAL
  (a torn write rolls back to the last committed transaction, which is
  exactly what the kill-9 crash test asserts).  Switching a new file to WAL
  is retried while another process holds the lock, so pool workers may all
  open one new path at once.
* **In-memory databases.**  ``file:/repro-<uuid>?vfs=memdb`` is shared by
  every connection of the process with ordinary locking, so ``busy_timeout``
  covers concurrent writers.  It vanishes with its last connection, so the
  backend holds one keeper connection for its lifetime.
* **Fingerprints from a revision column.**  Every ``put`` stamps the row
  with the next value of a store-wide monotonic counter (kept in ``meta``,
  bumped inside the same transaction; ``delete`` bumps it too).
  ``fingerprint()`` returns ``rev:{n}`` without touching the blobs, and
  because the counter never reuses a value — even across delete/re-put of
  the same key — the LRU and response caches never mistake new bytes for a
  cached entry.
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

import json
import os
import sqlite3
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.catalog import CATALOG_COLUMNS, ReleaseFilter, catalog_columns
from repro.core.store import PathLike, StoreBackend
from repro.exceptions import ReleaseIntegrityError

#: ``PRAGMA busy_timeout`` — how long a writer waits on a locked database
#: before failing, in milliseconds.  Generous: fleet workers contend rarely.
BUSY_TIMEOUT_MS = 10_000

#: Idle connections a process keeps for reuse; extras close on return.
MAX_IDLE_CONNECTIONS = 8

#: The columns ``put`` derives from a document, in ``INSERT`` order.
_DERIVED_COLUMNS = (
    "dataset", "mechanism", "epsilon", "levels", "graph_fingerprint",  # v2
    "graph_revision", "affected_levels",  # v3
)


def _derived_columns(document: bytes) -> Dict[str, object]:
    """The :data:`_DERIVED_COLUMNS` of one document: its catalog columns,
    provenance ``graph_revision`` and ``affected_levels`` count.  Foreign
    bytes (tests store ``b"not json"`` on purpose) get all-``NULL`` columns.
    """
    try:
        parsed = json.loads(bytes(document).decode("utf-8"))
        columns = catalog_columns(parsed)
        provenance = parsed.get("provenance") or {}
        revision = provenance.get("graph_revision")
        columns["graph_fingerprint"] = columns.pop("graph")
        columns["graph_revision"] = int(revision) if revision is not None else None
        columns["affected_levels"] = len(provenance.get("affected_levels", ()))
        return columns
    except (ValueError, TypeError, AttributeError):
        return dict.fromkeys(_DERIVED_COLUMNS)


def _backfill(conn: sqlite3.Connection, names: Tuple[str, ...]) -> None:
    """Fill derived columns ``names`` of every stored row, as ``put`` would."""
    assignments = ", ".join(f"{name} = ?" for name in names)
    for key, document in conn.execute("SELECT key, document FROM releases").fetchall():
        columns = _derived_columns(document)
        conn.execute(
            f"UPDATE releases SET {assignments} WHERE key = ?",
            (*(columns[name] for name in names), key),
        )


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
    """v2: extracted catalog columns + backfill of pre-catalog rows."""
    conn.execute("ALTER TABLE releases ADD COLUMN dataset TEXT")
    conn.execute("ALTER TABLE releases ADD COLUMN mechanism TEXT")
    conn.execute("ALTER TABLE releases ADD COLUMN epsilon REAL")
    conn.execute("ALTER TABLE releases ADD COLUMN levels INTEGER")
    conn.execute("ALTER TABLE releases ADD COLUMN graph_fingerprint TEXT")
    conn.execute(
        "CREATE INDEX idx_releases_catalog ON releases (mechanism, epsilon)"
    )
    _backfill(conn, _DERIVED_COLUMNS[:5])


def _migration_3_lineage_columns(conn: sqlite3.Connection) -> None:
    """v3: provenance lineage columns (staleness) + backfill."""
    conn.execute("ALTER TABLE releases ADD COLUMN graph_revision INTEGER")
    conn.execute("ALTER TABLE releases ADD COLUMN affected_levels INTEGER")
    conn.execute(
        "CREATE INDEX idx_releases_lineage ON releases (dataset, graph_revision)"
    )
    _backfill(conn, _DERIVED_COLUMNS[5:])


#: Ordered migration list: ``(target_version, apply(conn))``.  Applied in
#: order on open for every version above the database's recorded one, each
#: inside its own transaction (the version bump commits with the DDL).
MIGRATIONS = (
    (1, _migration_1_initial),
    (2, _migration_2_catalog_columns),
    (3, _migration_3_lineage_columns),
)

SCHEMA_VERSION = MIGRATIONS[-1][0]


class SqliteBackend(StoreBackend):
    """Release storage in one SQLite database, queryable by derived columns.

    Parameters
    ----------
    path:
        The database file; parent directories are created, the schema is
        created/migrated on open.  ``None`` opens a private in-memory
        database that lives as long as this backend.
    clock:
        Optional zero-argument callable returning the ``created_at`` string
        stamped on each ``put`` (e.g. :func:`repro.core.catalog.system_clock`).
        ``None`` (the default) stores ``NULL`` — the backend never reads the
        wall clock itself.
    """

    def __init__(self, path: Optional[PathLike], clock: Optional[Callable[[], str]] = None):
        # root is what the fleet/publisher hand to worker processes; an
        # in-memory database has none, so it cannot be served by a fleet.
        self.path = self.root = Path(path) if path is not None else None
        self._clock = clock
        self._idle: List[sqlite3.Connection] = []
        self._idle_pid = os.getpid()
        if self.path is None:
            self._database = f"file:/repro-{uuid.uuid4().hex}?vfs=memdb"
            self._keeper = self._connect()
        else:
            self._database = str(self.path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._migrate()

    # -- connection management ----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False: a pooled connection moves between
        # threads, but _connection() hands it to one thread at a time.
        conn = sqlite3.connect(
            self._database,
            timeout=BUSY_TIMEOUT_MS / 1000,
            check_same_thread=False,
            uri=self.path is None,
        )
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        if self.path is not None:
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

    @contextmanager
    def _write(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction, committed on success."""
        with self._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

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
                    f"store {self.describe()} has schema version {current}, newer than "
                    f"this code understands ({SCHEMA_VERSION}); refusing to open"
                )
        for version, apply in MIGRATIONS:
            if version <= current:
                continue
            with self._write() as conn:
                # Re-check under the write lock: another process may have
                # migrated between our read and our BEGIN.
                row = conn.execute("SELECT MAX(version) FROM schema_version").fetchone()
                if (row[0] or 0) < version:
                    apply(conn)
                    conn.execute("INSERT INTO schema_version (version) VALUES (?)", (version,))

    def _fetchone(self, sql: str, params: tuple = ()) -> Optional[tuple]:
        with self._connection() as conn:
            return conn.execute(sql, params).fetchone()

    def _fetchall(self, sql: str, params: tuple = ()) -> List[tuple]:
        with self._connection() as conn:
            return conn.execute(sql, params).fetchall()

    def schema_version(self) -> int:
        """The applied schema version (for tests and diagnostics)."""
        row = self._fetchone("SELECT MAX(version) FROM schema_version")
        return int(row[0] or 0)

    # -- StoreBackend --------------------------------------------------
    def put(self, key: str, document: bytes, answers: bytes) -> None:
        columns = _derived_columns(document)
        created_at = self._clock() if self._clock is not None else None
        with self._write() as conn:
            conn.execute("UPDATE meta SET value = value + 1 WHERE name = 'revision'")
            revision = conn.execute(
                "SELECT value FROM meta WHERE name = 'revision'"
            ).fetchone()[0]
            conn.execute(
                "INSERT OR REPLACE INTO releases"
                f" (key, document, answers, revision, created_at, {', '.join(_DERIVED_COLUMNS)})"
                f" VALUES (?, ?, ?, ?, ?{', ?' * len(_DERIVED_COLUMNS)})",
                (
                    key,
                    sqlite3.Binary(document),
                    sqlite3.Binary(answers),
                    revision,
                    created_at,
                    *(columns[name] for name in _DERIVED_COLUMNS),
                ),
            )

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
        with self._write() as conn:
            if conn.execute("DELETE FROM releases WHERE key = ?", (key,)).rowcount:
                conn.execute("UPDATE meta SET value = value + 1 WHERE name = 'revision'")

    def keys(self) -> List[str]:
        return [row[0] for row in self._fetchall("SELECT key FROM releases ORDER BY key")]

    def fingerprint(self, key: str) -> Optional[str]:
        row = self._fetchone("SELECT revision FROM releases WHERE key = ?", (key,))
        return f"rev:{row[0]}" if row is not None else None

    def describe(self) -> str:
        return str(self.path) if self.path is not None else "<in-memory store>"

    # -- catalog and lineage -------------------------------------------
    def query_catalog(self, release_filter: ReleaseFilter) -> List[Dict[str, object]]:
        """Catalog rows matching ``release_filter``, straight from SQL.

        The path behind :class:`~repro.core.catalog.ReleaseCatalog`: no
        document blob is read, and the filter compiles to a parameterized
        WHERE clause.
        """
        where, params = release_filter.sql_where()
        rows = self._fetchall(
            "SELECT key, dataset, mechanism, epsilon, levels, graph_fingerprint,"
            f" created_at FROM releases{where} ORDER BY key",
            tuple(params),
        )
        return [dict(zip(CATALOG_COLUMNS, row)) for row in rows]

    def revision(self) -> int:
        return int(self._fetchone("SELECT value FROM meta WHERE name = 'revision'")[0])

    def lineage(self, key: str) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        row = self._fetchone(
            """
            SELECT served.graph_revision, latest.graph_revision, latest.affected_levels
            FROM releases AS served
            LEFT JOIN releases AS latest ON latest.key = (
                SELECT key FROM releases
                WHERE dataset = served.dataset AND graph_revision IS NOT NULL
                ORDER BY graph_revision DESC, key LIMIT 1
            )
            WHERE served.key = ?
            """,
            (key,),
        )
        return row if row is not None else (None, None, None)

    def stale_keys(self) -> Tuple[int, List[str]]:
        rows = self._fetchall(
            """
            SELECT key, graph_revision < (
                SELECT MAX(graph_revision) FROM releases WHERE dataset = served.dataset
            )
            FROM releases AS served ORDER BY key
            """
        )
        return len(rows), [key for key, stale in rows if stale]


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
