"""Queryable release catalog over a :class:`~repro.core.store.ReleaseStore`.

A production store accumulates thousands of releases — ``get_or_create``
resume, journaled sweeps and a multi-process serving fleet all write into
the same :class:`ReleaseStore` — and a flat ``keys()`` listing cannot answer
operational questions like *"all gaussian releases at epsilon 0.5 on this
graph fingerprint"*.  This module is the repository layer that can:

* :class:`ReleaseFilter` — a typed filter (mechanism, epsilon, graph
  fingerprint, key glob, created-at lower bound) that compiles to a
  parameterized SQL ``WHERE`` clause;
* :class:`ReleaseCatalog` — ``rows(filter)`` returns one dictionary per
  matching release, sorted by key, answered by the store backend's indexed
  catalog columns without reading a single document;
* :func:`catalog_columns` / :func:`graph_fingerprint` — the single
  definition of how catalog columns are derived from a stored release
  document.  The SQLite backend extracts them at ``put`` time (and when a
  migration backfills an older database) and persists them as real columns.

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
import hashlib
import io
import json
from dataclasses import dataclass
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


def _sqlite_glob(pattern: str) -> str:
    """A shell-style pattern in SQLite ``GLOB`` spelling.

    The two differ only in character classes: the shell negates with
    ``[!...]`` and reads ``^`` as a member, SQLite negates with ``[^...]``
    and reads ``!`` as a member.  The shell also reads a ``[`` without a
    closing ``]`` as a literal.  Ranges pass through unchanged; the two
    disagree only on reversed ones (``[z-a]``) and on ``]`` as a start.
    """
    out: List[str] = []
    index = 0
    while index < len(pattern):
        close = -1
        if pattern[index] == "[":
            # The first member may be "]", so the class closes after it.
            first = index + 1 + (pattern[index + 1 : index + 2] == "!")
            close = pattern.find("]", first + 1)
        if close == -1:  # one literal character (an unclosed [ included)
            out.append("[[]" if pattern[index] == "[" else pattern[index])
            index += 1
            continue
        body = pattern[index + 1 : close]
        index = close + 1
        if body.startswith("!"):
            out.append(f"[^{body[1:]}]")
        elif body.startswith("^"):
            # A leading ^ is a member in the shell but negates in SQLite:
            # move it to the end, and a trailing - to the front, where
            # SQLite reads both as members.
            rest = body.lstrip("^")
            if rest.endswith("-"):
                rest = "-" + rest[:-1]
            out.append(f"[{rest}^]" if rest else "^")
        else:
            out.append(f"[{body}]")
    return "".join(out)


@dataclass(frozen=True)
class ReleaseFilter:
    """A typed conjunction of catalog predicates.

    Every field is optional; ``None`` means "no constraint".  The filter
    compiles to parameterized SQL (:meth:`sql_where`) over the backend's
    catalog columns.

    Parameters
    ----------
    mechanism:
        Exact mechanism name (``"gaussian"``, ``"laplace"``, ...).
    epsilon:
        Exact per-level budget ``epsilon_g``, compared with the float parsed
        from the stored JSON, so equality is well-defined.
    graph:
        Exact graph fingerprint (:func:`graph_fingerprint`).
    key_glob:
        Shell-style key pattern, as :func:`fnmatch.fnmatchcase` reads it:
        ``*``, ``?``, ``[...]`` classes and ``[!...]`` negated classes,
        case-sensitive.
    since:
        ISO-8601 lower bound on ``created_at``.  Rows without a recorded
        ``created_at`` (stores written without a clock) never
        match a ``since`` filter — an unknown age is not evidence of
        recency.
    """

    mechanism: Optional[str] = None
    epsilon: Optional[float] = None
    graph: Optional[str] = None
    key_glob: Optional[str] = None
    since: Optional[str] = None

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
            params.append(_sqlite_glob(self.key_glob))
        if self.since is not None:
            clauses.append("created_at IS NOT NULL AND created_at >= ?")
            params.append(self.since)
        if not clauses:
            return "", []
        return " WHERE " + " AND ".join(clauses), params


class ReleaseCatalog:
    """The repository over a store's catalog columns."""

    def __init__(self, store: ReleaseStore):
        self.store = store

    def rows(self, release_filter: Optional[ReleaseFilter] = None) -> List[Dict[str, object]]:
        """Matching catalog rows, sorted by key."""
        return self.store.backend.query_catalog(release_filter or ReleaseFilter())


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
