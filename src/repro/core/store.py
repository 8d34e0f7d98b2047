"""Persistent storage for disclosure releases (JSON structure + raw float64 answers).

A release is an artefact worth keeping: the privacy budget it consumed is
spent whether or not the noisy answers are saved, so a publisher should
persist every release and *serve* it rather than re-disclose.
:class:`ReleaseStore` provides that layer on top of a pluggable
:class:`StoreBackend`.  Every backend keeps the same two artefacts per key:
the release *document* — canonical JSON with the numeric answer vectors
replaced by references — and the *answers* — those vectors as raw
little-endian float64, so the round-trip is lossless down to the last bit.

The answers payload is a small versioned container: the line
``repro-answers 1``, then a one-line JSON index of ``[name, dtype, length]``
entries, then every array's values concatenated in index order.  It parses
with one ``json.loads`` and zero-copy ``np.frombuffer`` views, so a load
needs neither ``np.load`` nor its lock.  Answers stored before the container
existed are ``np.savez`` zips; they stay readable (never written again), both
in existing rows and in pairs copied in by :func:`import_directory_store`.
The document still names each vector's entry ``npz_key``: renaming the
field would change every stored document's bytes.

Every store is a :class:`~repro.core.sqlite_backend.SqliteBackend`: a path
opens one WAL-mode SQLite file, and :meth:`ReleaseStore.in_memory` opens a
private in-memory SQLite database.  Either way each row holds both
artefacts plus catalog columns extracted at write time, so catalog
(``repro query``, :mod:`repro.core.catalog`) and staleness
(:mod:`repro.serving.staleness`) questions are SQL queries on every store.

Stores written by the former one-directory-per-release backend
(``<key>/release.json`` + ``answers.npz``) are copied into a SQLite store,
byte for byte, by :func:`import_directory_store`.

On top of the backend, :class:`ReleaseStore` optionally keeps an LRU
read-through cache of parsed releases (``cache_size``).  Every cache hit is
re-validated against the backend's cheap change fingerprint (a revision
counter), so a release that was rewritten or corrupted behind the store is
never served stale from memory.

The store is wired through :meth:`repro.core.publisher.GraphPublisher.export_views`,
the ``repro disclose --store`` / ``repro report`` / ``repro serve`` CLI
commands, the read-only HTTP layer (:mod:`repro.serving`) and the evaluation
harnesses (:func:`~repro.evaluation.experiments.run_e6_baselines` resumes
from stored releases via :meth:`ReleaseStore.get_or_create`).
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import threading
import zipfile
from abc import ABC, abstractmethod
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.release import LevelRelease, MultiLevelRelease
from repro.exceptions import ReleaseIntegrityError, ValidationError
from repro.utils.serialization import canonical_json_bytes

PathLike = Union[str, Path]

_KEY_RE = re.compile(r"[^A-Za-z0-9._-]+")

#: Header line of the raw answers container (the number is its version).
_ANSWERS_MAGIC = b"repro-answers "
_ANSWERS_HEADER = _ANSWERS_MAGIC + b"1\n"

#: The dtypes a container entry may hold, always little-endian ...
_ANSWERS_DTYPES = {code: np.dtype(code) for code in ("<f8", "<i8")}
#: ... and the entry code of every in-memory dtype written as one of them.
_ANSWERS_CODES = {
    dtype.newbyteorder(order): code for code, dtype in _ANSWERS_DTYPES.items() for order in "<>"
}

#: Serialises legacy npz answer parsing.  NumPy parses ``.npy`` headers with
#: ``ast.literal_eval``, which is not thread-safe on every CPython (3.11.7
#: raises ``SystemError: AST constructor recursion depth mismatch`` when two
#: threads parse at once), so concurrent loads would misreport intact
#: artefacts as corrupt.
_NPZ_PARSE_LOCK = threading.Lock()


def _slugify(text: str) -> str:
    """Filesystem-safe store key fragment.

    When sanitisation is lossy (the text contained characters outside
    ``[A-Za-z0-9._-]``), a short digest of the *original* text is appended so
    two distinct raw keys can never collide onto one key (``"exp 1"`` vs
    ``"exp-1"``).
    """
    slug = _KEY_RE.sub("-", text.strip()).strip("-")
    if not slug or slug.strip(".") == "":
        # All-dot slugs ("." / "..") are not usable as file names.
        slug = "release"
    if slug != text:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
        slug = f"{slug}-{digest}"
    return slug


def _strip_answers(document: dict) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Split a release document into JSON structure and numeric arrays.

    Each level/query answer mapping is replaced by its label list plus the
    name (``npz_key``) of the answers-container entry holding its values.
    """
    arrays: Dict[str, np.ndarray] = {}
    levels = {}
    for level_key, level_doc in document["levels"].items():
        level_doc = dict(level_doc)
        answers = {}
        for query_name, values in level_doc["answers"].items():
            npz_key = f"{level_key}|{query_name}"
            labels = list(values.keys())
            arrays[npz_key] = np.asarray([values[label] for label in labels], dtype=float)
            answers[query_name] = {"labels": labels, "npz_key": npz_key}
        level_doc["answers"] = answers
        levels[level_key] = level_doc
    document = dict(document)
    document["levels"] = levels
    return document, arrays


def _restore_answers(document: dict, arrays: Dict[str, np.ndarray]) -> dict:
    """Inverse of :func:`_strip_answers`."""
    levels = {}
    for level_key, level_doc in document["levels"].items():
        level_doc = dict(level_doc)
        answers = {}
        for query_name, ref in level_doc["answers"].items():
            try:
                values = arrays[ref["npz_key"]]
                labels = ref["labels"]
            except (KeyError, TypeError) as exc:
                raise ReleaseIntegrityError(
                    f"answer arrays missing for level {level_key}, query {query_name!r}: {exc}"
                ) from exc
            if len(labels) != len(values):
                raise ReleaseIntegrityError(
                    f"label/value length mismatch for level {level_key}, query {query_name!r}"
                )
            answers[query_name] = {label: float(v) for label, v in zip(labels, values)}
        level_doc["answers"] = answers
        levels[level_key] = level_doc
    document = dict(document)
    document["levels"] = levels
    return document


def _answers_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    """The raw answers container holding ``arrays`` (1-D, float64 or int64)."""
    index = []
    body = []
    for name, values in arrays.items():
        code = _ANSWERS_CODES.get(values.dtype)
        if code is None:
            raise TypeError(f"answers container cannot hold {name!r} of dtype {values.dtype}")
        index.append([name, code, len(values)])
        body.append(values.astype(_ANSWERS_DTYPES[code], copy=False).tobytes())
    return b"".join([_ANSWERS_HEADER, json.dumps(index).encode("ascii"), b"\n", *body])


def _parse_answers(raw: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`_answers_bytes`: read-only views into ``raw``.

    Raises :class:`ValueError` naming what is corrupt.
    """
    if not raw.startswith(_ANSWERS_HEADER):
        version = raw[len(_ANSWERS_MAGIC) : raw.find(b"\n")]
        raise ValueError(f"unsupported answers container version {version!r}")
    index_end = raw.find(b"\n", len(_ANSWERS_HEADER))
    if index_end < 0:
        raise ValueError("answers container index is truncated")
    try:
        index = json.loads(raw[len(_ANSWERS_HEADER) : index_end])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"answers container index is unreadable: {exc}") from None
    if not isinstance(index, list):
        raise ValueError("answers container index is not a list")
    arrays: Dict[str, np.ndarray] = {}
    offset = index_end + 1
    for entry in index:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"answers container index entry {entry!r} is malformed")
        name, code, length = entry
        dtype = _ANSWERS_DTYPES.get(code) if isinstance(code, str) else None
        if dtype is None:
            raise ValueError(f"answers container entry {name!r} has unknown dtype {code!r}")
        if not isinstance(name, str) or name in arrays or type(length) is not int or length < 0:
            raise ValueError(f"answers container index entry {entry!r} is malformed")
        end = offset + length * dtype.itemsize
        if end > len(raw):
            raise ValueError(f"answers container body is truncated at {name!r}")
        arrays[name] = np.frombuffer(raw, dtype, length, offset)
        offset = end
    if offset != len(raw):
        raise ValueError(f"answers container has {len(raw) - offset} trailing bytes")
    return arrays


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class StoreBackend(ABC):
    """Byte-level I/O behind a :class:`ReleaseStore`.

    A backend stores, per (already slugified) key, exactly two artefacts: the
    release *document* (canonical JSON bytes) and the *answers* (container
    bytes, or legacy npz bytes),
    and answers the catalog and staleness queries from columns derived from
    the document when it was stored.  The one real backend is SQLite; the
    abstraction lets a fault-injecting wrapper stand in for it.
    """

    @abstractmethod
    def put(self, key: str, document: bytes, answers: bytes) -> None:
        """Store both artefacts under ``key`` (overwriting any previous pair)."""

    @abstractmethod
    def get_document(self, key: str) -> bytes:
        """The document bytes for ``key``; raises :class:`KeyError` when absent."""

    @abstractmethod
    def get_answers(self, key: str) -> Optional[bytes]:
        """The answers bytes for ``key``, or ``None`` when that artefact is absent."""

    @abstractmethod
    def exists(self, key: str) -> bool:
        """Whether a document is stored under ``key``."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove both artefacts (no-op when absent)."""

    @abstractmethod
    def keys(self) -> List[str]:
        """All stored keys, sorted."""

    @abstractmethod
    def fingerprint(self, key: str) -> Optional[str]:
        """A cheap change-detection token for ``key`` (``None`` when absent).

        The token must change whenever the stored bytes may have changed; it
        is what the read-through cache re-checks before serving a release
        from memory, so computing it must not require reading the artefacts.
        """

    @abstractmethod
    def describe(self) -> str:
        """Human-readable location for error messages and ``repr``."""

    @abstractmethod
    def query_catalog(self, release_filter) -> List[Dict[str, object]]:
        """Catalog rows matching a :class:`~repro.core.catalog.ReleaseFilter`,
        sorted by key."""

    @abstractmethod
    def revision(self) -> int:
        """The store-wide revision, bumped by every ``put`` and ``delete``."""

    @abstractmethod
    def lineage(self, key: str) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        """``(graph_revision, latest, latest_affected_levels)`` for ``key``.

        ``latest`` is the highest ``graph_revision`` among releases of the
        same dataset, and ``latest_affected_levels`` the affected-level
        count of the smallest key stored at it.  All ``None`` when unknown.
        """

    @abstractmethod
    def stale_keys(self) -> Tuple[int, List[str]]:
        """``(stored key count, sorted keys behind their dataset's latest
        graph_revision)``."""


class ReleaseStore:
    """Persisted multi-level releases, addressed by key, behind a backend.

    Parameters
    ----------
    root:
        Either a path or any :class:`StoreBackend` instance.  A path opens
        (creating it when absent) a
        :class:`~repro.core.sqlite_backend.SqliteBackend`: one queryable
        database file.  A path naming an existing directory is refused with
        a :class:`~repro.exceptions.ValidationError`; a store written by the
        former directory backend is copied into a database file with
        :func:`import_directory_store`.
    cache_size:
        When positive, keep up to this many parsed releases in an LRU
        read-through cache.  Hits are re-validated against the backend's
        change fingerprint before being served, so mutating or corrupting
        the stored artefacts behind the store is always detected.  The
        default (0) disables caching, preserving load-always-reads
        semantics; the serving layer enables it.
    clock:
        Optional zero-argument callable returning a created-at string,
        stamped on every SQLite write.  ``None`` (the default) stores no timestamp — backends
        never read the wall clock themselves.  Ignored when ``root`` is
        already a :class:`StoreBackend` instance.

    Examples
    --------
    >>> import tempfile
    >>> from repro import DisclosureConfig, MultiLevelDiscloser, generate_dblp_like
    >>> from repro.grouping.specialization import SpecializationConfig
    >>> graph = generate_dblp_like(num_authors=80, seed=0)
    >>> config = DisclosureConfig(specialization=SpecializationConfig(num_levels=3))
    >>> release = MultiLevelDiscloser(config, rng=1).disclose(graph)
    >>> from pathlib import Path
    >>> store = ReleaseStore(Path(tempfile.mkdtemp()) / "releases.db")
    >>> key = store.save(release)
    >>> store.load(key).levels() == release.levels()
    True
    """

    def __init__(
        self,
        root: Union[PathLike, StoreBackend],
        cache_size: int = 0,
        clock: Optional[Callable[[], str]] = None,
    ):
        if isinstance(root, StoreBackend):
            self.backend = root
        else:
            if Path(root).is_dir():
                raise ValidationError(
                    f"release store {root} is a directory; stores are SQLite files "
                    f"now, so copy it into one with import_directory_store"
                )
            # Imported lazily: sqlite_backend imports this module (it
            # subclasses StoreBackend), so a module-level import would cycle.
            from repro.core.sqlite_backend import SqliteBackend

            self.backend = SqliteBackend(root, clock=clock)
        self.root = getattr(self.backend, "root", None)
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[str, Tuple[Optional[str], MultiLevelRelease]]" = OrderedDict()
        self._cache_lock = threading.Lock()
        self._cache_lookups = 0
        self._cache_hits = 0
        self._cache_misses = 0

    @classmethod
    def in_memory(cls, cache_size: int = 0) -> "ReleaseStore":
        """A store on a private in-memory SQLite database (tests, caches).

        It has no ``root``, so it cannot be handed to worker processes.
        """
        from repro.core.sqlite_backend import SqliteBackend

        return cls(SqliteBackend(None), cache_size=cache_size)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def exists(self, key: str) -> bool:
        """Whether a release is stored under ``key``."""
        return self.backend.exists(_slugify(key))

    def fingerprint(self, key: str) -> Optional[str]:
        """The backend's change token for ``key`` (``None`` when absent).

        The same token the read-through cache re-validates against; exposed
        so callers holding per-key state about stored artefacts (e.g. the
        serving layer's corrupt-artefact quarantine) can notice when the
        bytes behind a key changed.
        """
        return self.backend.fingerprint(_slugify(key))

    def keys(self) -> List[str]:
        """All stored release keys, sorted."""
        return self.backend.keys()

    def _default_key(self, release: MultiLevelRelease) -> str:
        digest = hashlib.sha256(
            json.dumps(release.to_dict(), sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()[:12]
        return f"{_slugify(release.dataset_name or 'release')}-{digest}"

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the read-through cache.

        ``hits + misses == lookups`` by construction: every cache-enabled
        load counts exactly one lookup resolving to exactly one hit or
        miss (a stale-fingerprint drop is that lookup's single miss, not
        an extra one).
        """
        with self._cache_lock:
            return {
                "lookups": self._cache_lookups,
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "size": len(self._cache),
                "max_size": self.cache_size,
            }

    def _cache_get(self, key: str) -> Optional[MultiLevelRelease]:
        if self.cache_size <= 0:
            return None
        with self._cache_lock:
            self._cache_lookups += 1
            entry = self._cache.get(key)
            if entry is None:
                self._cache_misses += 1
                return None
            fingerprint, release = entry
        # Integrity re-check outside the lock: the backend must report the
        # same change token as when the entry was cached.
        if fingerprint is None or self.backend.fingerprint(key) != fingerprint:
            with self._cache_lock:
                self._cache.pop(key, None)
                self._cache_misses += 1
            return None
        with self._cache_lock:
            if key in self._cache:
                self._cache.move_to_end(key)
            self._cache_hits += 1
        return release

    def _cache_put(self, key: str, fingerprint: Optional[str], release: MultiLevelRelease) -> None:
        if self.cache_size <= 0 or fingerprint is None:
            return
        with self._cache_lock:
            self._cache[key] = (fingerprint, release)
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _cache_drop(self, key: str) -> None:
        with self._cache_lock:
            self._cache.pop(key, None)

    # ------------------------------------------------------------------
    # Multi-level releases
    # ------------------------------------------------------------------
    def save(self, release: MultiLevelRelease, key: Optional[str] = None) -> str:
        """Persist a release and return its key.

        ``key`` defaults to ``<dataset>-<content hash>``, so saving the same
        release twice is idempotent.
        """
        key = _slugify(key) if key is not None else self._default_key(release)
        return self._put(key, release.to_dict())

    def _put(self, key: str, document: dict) -> str:
        """Store ``document`` (canonical JSON + answers container) under ``key``."""
        document, arrays = _strip_answers(document)
        self.backend.put(key, canonical_json_bytes(document), _answers_bytes(arrays))
        self._cache_drop(key)
        return key

    def _load_document(self, key: str, slug: str) -> dict:
        try:
            raw = self.backend.get_document(slug)
        except KeyError:
            raise ReleaseIntegrityError(
                f"no release stored under key {key!r} in {self.backend.describe()} "
                f"(have: {self.keys()})"
            ) from None
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReleaseIntegrityError(f"release document for {key!r} is corrupt: {exc}") from exc

    def _load_arrays(self, key: str, slug: str) -> Dict[str, np.ndarray]:
        raw = self.backend.get_answers(slug)
        if raw is None:
            return {}
        try:
            if raw.startswith(_ANSWERS_MAGIC):
                return _parse_answers(raw)
            if not raw.startswith(b"PK"):
                raise ValueError("neither an answers container nor an npz archive")
            with _NPZ_PARSE_LOCK, np.load(io.BytesIO(raw)) as npz:
                return {name: npz[name] for name in npz.files}
        except (zipfile.BadZipFile, ValueError, OSError, EOFError, KeyError) as exc:
            # What a corrupt payload raises.  Anything else (a transient
            # failure inside the parser) propagates: it says nothing about
            # the stored bytes, so it must not get the key quarantined.
            raise ReleaseIntegrityError(f"answer arrays for {key!r} are corrupt: {exc}") from exc

    def load_document(self, key: str) -> dict:
        """The stored release document alone — answers stay as references.

        The cheap path for metadata/provenance readers (e.g. the serving
        layer's release-metadata endpoint): the answer arrays are never read
        or parsed.  Raises :class:`ReleaseIntegrityError` exactly like
        :meth:`load`.
        """
        return self._load_document(key, _slugify(key))

    def load(self, key: str) -> MultiLevelRelease:
        """Load a release by key (read-through cached when ``cache_size > 0``).

        Raises :class:`ReleaseIntegrityError` when the key is absent, holds a
        level view rather than a full release, or its stored artefacts are
        corrupt — never a raw parse error, so callers (e.g. ``repro report``)
        have one exception type to handle.

        Cached releases are shared objects: treat the return value as
        read-only when caching is enabled.
        """
        slug = _slugify(key)
        cached = self._cache_get(slug)
        if cached is not None:
            return cached
        # Fingerprint before reading: if the artefacts change mid-read the
        # stale token makes the next hit re-validate and reload.
        fingerprint = self.backend.fingerprint(slug)
        document = self._load_document(key, slug)
        if document.get("level_view"):
            raise ReleaseIntegrityError(
                f"{key!r} holds a single level view, not a full release (use load_level)"
            )
        arrays = self._load_arrays(key, slug)
        try:
            release = MultiLevelRelease.from_dict(_restore_answers(document, arrays))
        except ReleaseIntegrityError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ReleaseIntegrityError(
                f"release document for {key!r} has an invalid structure: {exc}"
            ) from exc
        self._cache_put(slug, fingerprint, release)
        return release

    def delete(self, key: str) -> None:
        """Remove a stored release (no-op when absent)."""
        slug = _slugify(key)
        self.backend.delete(slug)
        self._cache_drop(slug)

    def get_or_create(
        self, key: str, builder: Callable[[], MultiLevelRelease]
    ) -> Tuple[MultiLevelRelease, bool]:
        """Load ``key`` if stored, else build, persist and return it.

        Returns ``(release, created)`` — ``created`` is ``False`` when the
        release was served from the store, which is how the evaluation
        harnesses resume interrupted experiments without re-spending budget.

        Tolerates concurrent writers racing on the same key: whoever
        persists first wins, and a writer that loses the race (the key
        appeared while its builder ran, or its save failed against an
        artefact that now exists) loads and returns the winner's release
        with ``created=False`` instead of erroring.
        """
        if self.exists(key):
            return self.load(key), False
        release = builder()
        if self.exists(key):
            # A concurrent get_or_create persisted while our builder ran;
            # serve the winner's artefact so every caller sees one release.
            return self.load(key), False
        try:
            self.save(release, key=key)
        except OSError:
            if self.exists(key):
                return self.load(key), False
            raise
        return release, True

    # ------------------------------------------------------------------
    # Single-level views
    # ------------------------------------------------------------------
    def save_level(self, view: LevelRelease, key: str) -> str:
        """Persist a single level release (e.g. one role's view)."""
        document = {"level_view": True, "levels": {str(view.level): view.to_dict()}}
        return self._put(_slugify(key), document)

    def load_level(self, key: str) -> LevelRelease:
        """Inverse of :meth:`save_level`."""
        slug = _slugify(key)
        try:
            raw = self.backend.get_document(slug)
        except KeyError:
            raise ReleaseIntegrityError(
                f"no level view stored under key {key!r} in {self.backend.describe()}"
            ) from None
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReleaseIntegrityError(
                f"level-view document for {key!r} is corrupt: {exc}"
            ) from exc
        if not document.get("level_view"):
            raise ReleaseIntegrityError(f"{key!r} holds a full release, not a level view")
        document = _restore_answers(document, self._load_arrays(key, slug))
        (level_doc,) = document["levels"].values()
        return LevelRelease.from_dict(level_doc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReleaseStore(backend={self.backend.describe()!r}, releases={len(self.keys())})"


def import_directory_store(directory: PathLike, store: ReleaseStore) -> List[str]:
    """Copy a directory-backend store into ``store``; returns the imported keys.

    The former directory backend kept one sub-directory per release holding
    ``release.json`` and ``answers.npz``.  Each complete pair is copied byte
    for byte under its directory name, so every stored release — and the
    privacy budget it already spent — stays servable without re-disclosure.
    Directories missing either artefact (an interrupted or torn write) and
    keys the target already holds are skipped; re-running is a no-op.

    Examples
    --------
    >>> import tempfile
    >>> from pathlib import Path
    >>> legacy = Path(tempfile.mkdtemp())
    >>> (legacy / "run-1").mkdir()
    >>> _ = (legacy / "run-1" / "release.json").write_bytes(b"{}")
    >>> _ = (legacy / "run-1" / "answers.npz").write_bytes(b"npz")
    >>> store = ReleaseStore.in_memory()
    >>> import_directory_store(legacy, store)
    ['run-1']
    >>> store.backend.get_answers("run-1")
    b'npz'
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"{directory} is not a directory store")
    imported = []
    for entry in sorted(directory.iterdir()):
        document = entry / "release.json"
        answers = entry / "answers.npz"
        if not (document.is_file() and answers.is_file()):
            continue
        if store.backend.exists(entry.name):
            continue
        store.backend.put(entry.name, document.read_bytes(), answers.read_bytes())
        imported.append(entry.name)
    return imported
