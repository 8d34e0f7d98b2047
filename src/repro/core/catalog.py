"""Queryable release catalog over any :class:`~repro.core.store.ReleaseStore`.

A production store accumulates thousands of releases — ``get_or_create``
resume, journaled sweeps and a multi-process serving fleet all write into
the same :class:`ReleaseStore` — and a flat ``keys()`` listing cannot answer
operational questions like *"all gaussian releases at epsilon 0.5 on this
graph fingerprint"*.  This module is the repository layer that can:

* :class:`ReleaseFilter` — a typed filter (mechanism, epsilon, graph
  fingerprint, key glob, created-at lower bound) that compiles to
  parameterized SQL on a :class:`~repro.core.sqlite_backend.SqliteBackend`
  and to an equivalent Python predicate everywhere else;
* :class:`ReleaseCatalog` — ``rows(filter)`` returns one dictionary per
  matching release, sorted by key.  Backends exposing ``query_catalog``
  (the SQLite backend) answer from their indexed catalog columns without
  reading a single document; every other backend is served by a full-scan
  fallback that parses each stored document through the **same** column
  extraction, so the two paths return identical result sets for identically
  seeded stores;
* :func:`catalog_row` / :func:`graph_fingerprint` — the single definition of
  how catalog columns are derived from a stored release document.  The
  SQLite backend extracts them at ``put`` time and persists them as real
  columns; the scan fallback extracts them at query time.  One function,
  two call sites, zero drift.

Catalog columns (:data:`CATALOG_COLUMNS`, in display order): ``key``,
``dataset``, ``mechanism``, ``epsilon``, ``levels`` (released level count),
``graph`` (the graph fingerprint) and ``created_at`` (``None`` unless the
writing backend was given a caller-supplied clock — the backend itself never
reads the wall clock, keeping stored artefacts deterministic under test).

The ``repro query`` CLI subcommand renders these rows as an aligned table,
CSV, or canonical JSON (:func:`format_rows`).
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import io
import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple, Union

from repro.core.store import ReleaseStore
from repro.exceptions import ReleaseIntegrityError, ValidationError
from repro.utils.serialization import canonical_json_bytes

#: Catalog columns in display order — one dict key per column in every row.
CATALOG_COLUMNS: Tuple[str, ...] = (
    "key",
    "dataset",
    "mechanism",
    "epsilon",
    "levels",
    "graph",
    "created_at",
)

#: ``repro query --format`` spellings.
OUTPUT_FORMATS: Tuple[str, ...] = ("table", "csv", "json")


def system_clock() -> str:
    """A UTC ISO-8601 timestamp — the *caller-supplied* created-at source.

    Store backends never read the wall clock themselves (stored artefacts
    must be reproducible under test); instead the CLI passes this function
    into the store so interactively-written releases carry a ``created_at``
    the ``--since`` filter can use.
    """
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def graph_fingerprint(document: dict) -> str:
    """A short content fingerprint of the graph behind a release document.

    Derived from what the release itself discloses about its source graph —
    the dataset name plus the per-level group-size statistics of the
    hierarchy built over it — so two releases of the same graph under the
    same specialization share a fingerprint regardless of mechanism,
    epsilon, or noise draw, and the fingerprint is computable from the
    document alone (no graph access, identical across store backends).
    """
    payload = {
        "dataset_name": document.get("dataset_name"),
        "level_statistics": document.get("level_statistics", []),
    }
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()[:16]


def catalog_columns(document: Union[bytes, dict]) -> Dict[str, object]:
    """The extracted catalog columns of one stored release document.

    Accepts the raw document bytes (what a backend holds) or the parsed
    dict.  Tolerates level-view documents (``save_level`` artefacts): the
    mechanism falls back to the single level's own record and missing
    provenance renders as ``None`` rather than failing the whole catalog.
    """
    if isinstance(document, (bytes, bytearray)):
        try:
            document = json.loads(bytes(document).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReleaseIntegrityError(f"catalog cannot parse document: {exc}") from exc
    config = document.get("config") or {}
    mechanism = config.get("mechanism")
    epsilon = config.get("epsilon_g")
    levels = document.get("levels") or {}
    if mechanism is None:
        for level_doc in levels.values():
            mechanism = level_doc.get("mechanism")
            break
    return {
        "dataset": document.get("dataset_name"),
        "mechanism": mechanism,
        "epsilon": float(epsilon) if epsilon is not None else None,
        "levels": len(levels),
        "graph": graph_fingerprint(document),
    }


def catalog_row(
    key: str, document: Union[bytes, dict], created_at: Optional[str] = None
) -> Dict[str, object]:
    """One full catalog row (:data:`CATALOG_COLUMNS` order) for ``key``."""
    row: Dict[str, object] = {"key": key}
    row.update(catalog_columns(document))
    row["created_at"] = created_at
    return row


@dataclass(frozen=True)
class ReleaseFilter:
    """A typed conjunction of catalog predicates.

    Every field is optional; ``None`` means "no constraint".  The same
    filter compiles to parameterized SQL (:meth:`sql_where`) on the SQLite
    backend and evaluates as a Python predicate (:meth:`matches`) in the
    full-scan fallback — the two must stay semantically identical, which is
    what the cross-backend parity tests pin.

    Parameters
    ----------
    mechanism:
        Exact mechanism name (``"gaussian"``, ``"laplace"``, ...).
    epsilon:
        Exact per-level budget ``epsilon_g``.  Both paths compare the float
        parsed from the same stored JSON, so equality is well-defined.
    graph:
        Exact graph fingerprint (:func:`graph_fingerprint`).
    key_glob:
        Shell-style key pattern (``*``, ``?``, ``[...]`` character classes;
        case-sensitive on both paths).
    since:
        ISO-8601 lower bound on ``created_at``.  Rows without a recorded
        ``created_at`` (in-memory stores, clock-less SQLite writers) never
        match a ``since`` filter — an unknown age is not evidence of
        recency.
    """

    mechanism: Optional[str] = None
    epsilon: Optional[float] = None
    graph: Optional[str] = None
    key_glob: Optional[str] = None
    since: Optional[str] = None

    def is_empty(self) -> bool:
        """Whether the filter constrains nothing (every row matches)."""
        return all(getattr(self, spec.name) is None for spec in fields(self))

    # -- SQL path ------------------------------------------------------
    def sql_where(self) -> Tuple[str, List[object]]:
        """``(WHERE clause, parameters)`` for the SQLite catalog table.

        Always parameterized — filter values never interpolate into SQL
        text, so a hostile key glob or mechanism string is inert.
        """
        clauses: List[str] = []
        params: List[object] = []
        if self.mechanism is not None:
            clauses.append("mechanism = ?")
            params.append(self.mechanism)
        if self.epsilon is not None:
            clauses.append("epsilon = ?")
            params.append(float(self.epsilon))
        if self.graph is not None:
            clauses.append("graph_fingerprint = ?")
            params.append(self.graph)
        if self.key_glob is not None:
            clauses.append("key GLOB ?")
            params.append(self.key_glob)
        if self.since is not None:
            clauses.append("created_at IS NOT NULL AND created_at >= ?")
            params.append(self.since)
        if not clauses:
            return "", []
        return " WHERE " + " AND ".join(clauses), params

    # -- scan path -----------------------------------------------------
    def matches(self, row: Dict[str, object]) -> bool:
        """Whether one catalog row satisfies every set predicate."""
        if self.mechanism is not None and row.get("mechanism") != self.mechanism:
            return False
        if self.epsilon is not None and row.get("epsilon") != float(self.epsilon):
            return False
        if self.graph is not None and row.get("graph") != self.graph:
            return False
        if self.key_glob is not None and not fnmatch.fnmatchcase(
            str(row.get("key")), self.key_glob
        ):
            return False
        if self.since is not None:
            created_at = row.get("created_at")
            if created_at is None or str(created_at) < self.since:
                return False
        return True


class ReleaseCatalog:
    """The repository over a store's catalog columns.

    Backends that maintain an indexed catalog expose ``query_catalog(filter)``
    (the SQLite backend); :meth:`rows` uses it when present and otherwise
    falls back to a full scan that extracts the same columns from every
    stored document — so one ``repro query`` command inspects any store.
    """

    def __init__(self, store: ReleaseStore):
        self.store = store

    def rows(self, release_filter: Optional[ReleaseFilter] = None) -> List[Dict[str, object]]:
        """Matching catalog rows, sorted by key."""
        release_filter = release_filter or ReleaseFilter()
        query = getattr(self.store.backend, "query_catalog", None)
        if callable(query):
            return query(release_filter)
        return self.scan(release_filter)

    def scan(self, release_filter: ReleaseFilter) -> List[Dict[str, object]]:
        """The full-scan path: parse every document, filter in Python.

        The fallback for backends without ``query_catalog``, and the
        baseline the indexed path is benchmarked against on the same store.
        A release deleted between ``keys()`` and its read (or stored with an
        unparseable document) is skipped rather than failing the whole
        listing — the catalog is an inspection tool, not an integrity
        checker.
        """
        rows: List[Dict[str, object]] = []
        backend = self.store.backend
        for key in self.store.keys():
            try:
                document = backend.get_document(key)
            except KeyError:
                continue
            try:
                row = catalog_row(key, document, created_at=None)
            except ReleaseIntegrityError:
                continue
            if release_filter.matches(row):
                rows.append(row)
        return sorted(rows, key=lambda row: str(row["key"]))


def format_rows(rows: List[Dict[str, object]], output_format: str = "table") -> str:
    """Render catalog rows as an aligned table, CSV, or canonical JSON.

    The JSON form is the machine contract: canonical bytes (sorted keys),
    so identically seeded stores produce identical output regardless of
    backend — the property the acceptance tests diff on.
    """
    if output_format not in OUTPUT_FORMATS:
        raise ValidationError(
            f"output format must be one of {OUTPUT_FORMATS}, got {output_format!r}"
        )
    if output_format == "json":
        return canonical_json_bytes(rows).decode("utf-8").rstrip("\n")
    if output_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(CATALOG_COLUMNS)
        for row in rows:
            writer.writerow(
                ["" if row.get(col) is None else row.get(col) for col in CATALOG_COLUMNS]
            )
        return buffer.getvalue().rstrip("\n")
    from repro.evaluation.reporting import format_table

    if not rows:
        return "(no matching releases)"
    return format_table(rows, columns=list(CATALOG_COLUMNS))
