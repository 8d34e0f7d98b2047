"""The read-only HTTP server over a :class:`~repro.core.store.ReleaseStore`.

Endpoints (all ``GET``, all JSON):

========================================  =====================================
``/``                                     endpoint directory
``/healthz``                              liveness + store/policy summary
``/releases``                             stored release keys
``/releases/<key>``                       release metadata and provenance
                                          (guarantees, noise scales, config,
                                          refresh lineage and a ``staleness``
                                          verdict — everything except the
                                          answers)
``/releases/<key>/roles``                 the roles the policy can resolve
``/releases/<key>/views/<role>``          the single per-level view the role
                                          is entitled to, resolved through
                                          :meth:`AccessPolicy.view_for`
========================================  =====================================

Error mapping: an unknown release key is ``404``, an unknown role (or a role
whose level cannot be served) is ``403``, a write verb is ``405``, and a
stored-but-corrupt artefact is ``500``.  Responses are canonical JSON
(sorted keys, two-space indent, trailing newline), so the same stored
release serialises byte-identically regardless of the store backend behind
the server.

Fault tolerance: the server degrades instead of collapsing.

* ``max_in_flight`` bounds concurrently-handled requests; excess requests
  are *shed* with ``503`` + ``Retry-After`` instead of queueing without
  bound (``/healthz`` is exempt, so probes see through the overload).
* ``handler_timeout`` bounds one request's handler work; a stuck store read
  answers ``503`` instead of hanging the connection.
* A stored-but-corrupt artefact answers ``500`` once, then the key is
  *quarantined*: subsequent requests get a fast ``404`` with the corruption
  reason instead of re-reading (and re-failing on) the artefact.  The
  quarantine entry is pinned to the store's change fingerprint, so
  republishing the key clears it automatically.
* ``/healthz`` reports ``"degraded"`` (plus shed/timeout/backend-error
  counters and the quarantined keys) whenever releases are quarantined.

Hot-path response cache: per-release routes (``/releases/<key>...``) are
served from a :class:`~repro.serving.respcache.ResponseCache` — the
canonical JSON bytes (plus a precomputed gzip variant and a strong ``ETag``)
are built **once per store fingerprint** and replayed directly from memory,
so a warm cached ``GET`` performs zero JSON serialisation and zero store
reads.  Every hit is re-validated against the store's per-key change
fingerprint first, so a republished key is never served stale.  Clients
holding a body revalidate with ``If-None-Match`` and get an empty ``304``;
clients advertising ``Accept-Encoding: gzip`` get the compressed variant
with ``Content-Encoding: gzip`` (all cacheable responses carry
``Vary: Accept-Encoding``).  ``response_cache_size=0`` restores the
serialise-per-request behaviour; ``gzip_enabled=False`` disables content
negotiation while keeping the byte cache and ``304`` revalidation.

The server is a stdlib :class:`~http.server.ThreadingHTTPServer` — one
thread per connection, no framework — and the request path only ever reads
from the store and applies the access policy.  Nothing here can spend
privacy budget: the disclosure pipeline is not imported.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import unquote, urlsplit

from repro.core.access import AccessPolicy
from repro.core.store import ReleaseStore
from repro.exceptions import AccessLevelError, ReleaseIntegrityError, ValidationError
from repro.serving.respcache import (
    DEFAULT_RESPONSE_CACHE_SIZE,
    CachedResponse,
    ResponseCache,
)
from repro.serving.staleness import StalenessIndex
from repro.utils.serialization import canonical_json_bytes as canonical_json
from repro.utils.serialization import from_json_file

PathLike = Union[str, Path]

#: Parsed releases kept hot in the store's read-through cache by default.
DEFAULT_CACHE_SIZE = 32

#: ``Retry-After`` seconds sent with load-shedding 503 responses.
RETRY_AFTER_SECONDS = 1

#: A handler's response before it is written: (status, payload, headers).
Response = Tuple[int, dict, Tuple[Tuple[str, str], ...]]


class ServingStats:
    """Thread-safe degradation counters plus the corrupt-artefact quarantine.

    One instance lives on the HTTP server; handler threads record sheds,
    handler timeouts and backend errors through it, and ``/healthz`` renders
    its snapshot so operators see *how* the server is degraded, not just
    that it is.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.shed = 0
        self.handler_timeouts = 0
        self.backend_errors = 0
        self.etag_hits = 0
        self.gzip_responses = 0
        self.cache_invalidations = 0
        self._quarantine: Dict[str, Dict[str, Optional[str]]] = {}

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_handler_timeout(self) -> None:
        with self._lock:
            self.handler_timeouts += 1

    def record_etag_hit(self) -> None:
        """An ``If-None-Match`` revalidation answered with an empty 304."""
        with self._lock:
            self.etag_hits += 1

    def record_gzip_response(self) -> None:
        """A response body sent with ``Content-Encoding: gzip``."""
        with self._lock:
            self.gzip_responses += 1

    def record_cache_invalidation(self) -> None:
        """A cached response dropped because its store fingerprint went stale."""
        with self._lock:
            self.cache_invalidations += 1

    def quarantine(self, key: str, fingerprint: Optional[str], reason: str) -> None:
        """Mark ``key``'s stored artefact corrupt at ``fingerprint``."""
        with self._lock:
            self.backend_errors += 1
            self._quarantine[key] = {"fingerprint": fingerprint, "reason": reason}

    def quarantine_reason(self, key: str, fingerprint: Optional[str]) -> Optional[str]:
        """The recorded corruption reason, or ``None`` when not quarantined.

        An entry whose recorded fingerprint no longer matches the store's is
        dropped — the artefact changed (e.g. was republished), so the next
        read gets a fresh chance.
        """
        with self._lock:
            entry = self._quarantine.get(key)
            if entry is None:
                return None
            if entry["fingerprint"] != fingerprint:
                del self._quarantine[key]
                return None
            return entry["reason"]

    def snapshot(self) -> dict:
        """JSON-ready counters for ``/healthz``."""
        with self._lock:
            return {
                "shed": self.shed,
                "handler_timeouts": self.handler_timeouts,
                "backend_errors": self.backend_errors,
                "etag_hits": self.etag_hits,
                "gzip_responses": self.gzip_responses,
                "cache_invalidations": self.cache_invalidations,
                "quarantined": sorted(self._quarantine),
            }


def _release_metadata(key: str, document: dict) -> dict:
    """Everything about a stored release except the answers themselves.

    Works directly off the stored document (answers still references),
    so serving metadata never reads or parses the answer arrays.
    """
    level_metadata = {}
    for level_key, level_doc in document["levels"].items():
        level_metadata[level_key] = {
            "guarantee": level_doc["guarantee"],
            "mechanism": level_doc["mechanism"],
            "noise_scale": level_doc["noise_scale"],
            "sensitivity": level_doc["sensitivity"],
            "queries": sorted(level_doc["answers"]),
        }
    return {
        "key": key,
        "dataset": document["dataset_name"],
        "levels": sorted(int(level) for level in document["levels"]),
        "level_metadata": level_metadata,
        "level_statistics": document.get("level_statistics", []),
        "specialization_cost": document.get("specialization_cost", {}),
        "config": document.get("config", {}),
    }


class _ReleaseHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the store/policy for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        handler,
        store: ReleaseStore,
        policy: AccessPolicy,
        verbose: bool,
        max_in_flight: Optional[int] = None,
        handler_timeout: Optional[float] = None,
        response_cache_size: int = DEFAULT_RESPONSE_CACHE_SIZE,
        gzip_enabled: bool = True,
    ):
        self.store = store
        self.policy = policy
        self.verbose = verbose
        self.stats = ServingStats()
        self.limiter = (
            threading.Semaphore(max_in_flight) if max_in_flight is not None else None
        )
        self.handler_timeout = handler_timeout
        self.respcache = (
            ResponseCache(
                response_cache_size,
                on_invalidation=self.stats.record_cache_invalidation,
            )
            if response_cache_size > 0
            else None
        )
        self.gzip_enabled = gzip_enabled
        self.staleness = StalenessIndex(store)
        super().__init__(address, handler)


class ReleaseRequestHandler(BaseHTTPRequestHandler):
    """Routes one request; holds no state beyond the connection."""

    server_version = "repro-serving/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # keep-alive replies must not wait ~40 ms

    # -- plumbing --------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload, extra_headers=()) -> None:
        body = canonical_json(payload)
        self.send_response(status)
        for name, value in extra_headers:
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"status": status, "error": message})

    def _drain_request_body(self) -> None:
        """Consume an unread request body so a keep-alive connection stays
        aligned on the next request line (chunked bodies close instead)."""
        if self.headers.get("Transfer-Encoding", "").lower() == "chunked":
            self.close_connection = True
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # Malformed header: the body length is unknowable, so the
            # connection cannot be re-aligned — answer, then close it.
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(length, 65536))
            if not chunk:
                self.close_connection = True
                return
            length -= len(chunk)

    def _method_not_allowed(self) -> None:
        self._drain_request_body()
        self._send_json(
            405,
            {"status": 405, "error": "this API is read-only"},
            extra_headers=(("Allow", "GET, HEAD"),),
        )

    def do_POST(self) -> None:
        self._method_not_allowed()

    def do_PUT(self) -> None:
        self._method_not_allowed()

    def do_DELETE(self) -> None:
        self._method_not_allowed()

    def do_PATCH(self) -> None:
        self._method_not_allowed()

    def do_HEAD(self) -> None:
        # Same routing and headers as GET; _send_json suppresses the body,
        # so load-balancer probes (`curl -I /healthz`) see a real 200.
        self.do_GET()

    # -- response cache plumbing -----------------------------------------
    def _cache_context(self, segments: List[str]) -> Optional[Tuple[str, Optional[str]]]:
        """``(route, store fingerprint)`` when the route is cacheable.

        Per-release routes (``/releases/<key>...``) are the cacheable ones:
        their whole response is a pure function of the stored bytes behind
        ``<key>`` (pinned by the backend fingerprint) and the fixed policy.
        ``/``, ``/releases`` and ``/healthz`` stay uncached — they depend on
        the store's full key set or on live counters.
        """
        if self.server.respcache is None:
            return None
        if len(segments) < 2 or segments[0] != "releases":
            return None
        fingerprint = self.server.store.fingerprint(segments[1])
        if len(segments) == 2 and fingerprint is not None:
            # The metadata body embeds a staleness verdict that depends on
            # *sibling* releases (a refresh republishing another key makes
            # this one stale without touching its bytes), so its cache entry
            # is pinned to the store-wide revision, not just the key's own.
            fingerprint = f"{fingerprint}|{self.server.staleness.token()}"
        return "/" + "/".join(segments), fingerprint

    def _accepts_gzip(self) -> bool:
        """Whether the request's ``Accept-Encoding`` admits gzip (q != 0)."""
        wildcard = False
        for clause in self.headers.get("Accept-Encoding", "").split(","):
            parts = clause.strip().split(";")
            coding = parts[0].strip().lower()
            if coding not in ("gzip", "x-gzip", "*"):
                continue
            quality = 1.0
            for param in parts[1:]:
                param = param.strip()
                if param.startswith("q="):
                    try:
                        quality = float(param[2:])
                    except ValueError:
                        quality = 0.0
            if coding == "*":
                wildcard = quality > 0
                continue
            return quality > 0  # an explicit gzip clause is definitive
        return wildcard

    def _if_none_match(self, etag: str) -> bool:
        """Whether the request's ``If-None-Match`` matches ``etag``."""
        header = self.headers.get("If-None-Match")
        if not header:
            return False
        if header.strip() == "*":
            return True
        candidates = [tag.strip() for tag in header.split(",")]
        return any(tag == etag or tag == f"W/{etag}" for tag in candidates)

    def _send_cached(self, entry: CachedResponse) -> None:
        """Answer from precomputed bytes: 304 on ETag match, else the
        negotiated (identity or gzip) variant — no serialisation either way."""
        if self._if_none_match(entry.etag):
            self.server.stats.record_etag_hit()
            # A 304 has no body by definition (keep-alive clients know not
            # to read one), so no Content-Length is sent.
            self.send_response(304)
            self.send_header("ETag", entry.etag)
            self.send_header("Vary", "Accept-Encoding")
            self.end_headers()
            return
        use_gzip = self.server.gzip_enabled and self._accepts_gzip()
        body = entry.gzip_body if use_gzip else entry.body
        self.send_response(200)
        self.send_header("ETag", entry.etag)
        self.send_header("Vary", "Accept-Encoding")
        if use_gzip:
            self.server.stats.record_gzip_response()
            self.send_header("Content-Encoding", "gzip")
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    # -- routing ---------------------------------------------------------
    def do_GET(self) -> None:
        segments = [unquote(part) for part in urlsplit(self.path).path.split("/") if part]
        try:
            self._respond_and_send(segments)
        except BrokenPipeError:  # pragma: no cover - client hung up
            pass
        except Exception as exc:  # noqa: BLE001 - a bug must not drop the connection
            try:
                self._send_error_json(500, f"internal error: {exc}")
            except Exception:  # pragma: no cover - response already in flight
                pass

    def _respond_and_send(self, segments: List[str]) -> None:
        """Serve from the response cache when possible, else route and
        (for a cacheable 200) cache the canonical bytes for the next hit.

        A cache hit bypasses load shedding and the handler timeout the same
        way ``/healthz`` does: it performs no store read and no handler work
        worth bounding, only a fingerprint check and a socket write.
        """
        context = self._cache_context(segments)
        if context is not None:
            route, fingerprint = context
            entry = self.server.respcache.get(route, fingerprint)
            if entry is not None:
                self._send_cached(entry)
                return
        status, payload, headers = self._respond(segments)
        if context is not None and status == 200 and context[1] is not None and not headers:
            # The fingerprint was read *before* the store was: if the
            # artefacts changed mid-read, the stale token makes the next
            # lookup invalidate and rebuild (same pattern as the parsed-
            # release LRU cache).
            entry = self.server.respcache.put(context[0], context[1], canonical_json(payload))
            self._send_cached(entry)
            return
        self._send_json(status, payload, extra_headers=headers)

    def _respond(self, segments: List[str]) -> Response:
        """Apply load shedding and the handler timeout around the route.

        ``/healthz`` bypasses both: a probe must see through an overload
        (and report it) rather than be shed by it.
        """
        if segments == ["healthz"]:
            return self._handle_health()
        limiter = self.server.limiter
        if limiter is not None and not limiter.acquire(blocking=False):
            self.server.stats.record_shed()
            return (
                503,
                {
                    "status": 503,
                    "error": "server is at its in-flight request limit; retry shortly",
                },
                (("Retry-After", str(RETRY_AFTER_SECONDS)),),
            )
        try:
            return self._route_with_timeout(segments)
        finally:
            if limiter is not None:
                limiter.release()

    def _route_with_timeout(self, segments: List[str]) -> Response:
        """Run the route, bounding its wall clock by ``handler_timeout``.

        The route only *computes* a response (handlers never touch the
        socket), so on timeout the worker thread is abandoned mid-read and
        the connection thread answers 503 — the stuck read cannot write a
        late, interleaved response.
        """
        timeout = self.server.handler_timeout
        if timeout is None:
            return self._route(segments)
        outcome: Dict[str, object] = {}

        def run() -> None:
            try:
                outcome["response"] = self._route(segments)
            except Exception as exc:  # noqa: BLE001 - re-raised on the connection thread
                outcome["error"] = exc

        worker = threading.Thread(target=run, name="repro-serving-handler", daemon=True)
        worker.start()
        worker.join(timeout)
        if worker.is_alive():
            self.server.stats.record_handler_timeout()
            return (
                503,
                {
                    "status": 503,
                    "error": f"handler exceeded its {timeout:g}s timeout; retry shortly",
                },
                (("Retry-After", str(RETRY_AFTER_SECONDS)),),
            )
        if "error" in outcome:
            raise outcome["error"]  # type: ignore[misc]
        return outcome["response"]  # type: ignore[return-value]

    def _route(self, segments: List[str]) -> Response:
        if not segments:
            return self._handle_index()
        if segments[0] != "releases":
            return self._error(404, f"unknown endpoint /{'/'.join(segments)}")
        if len(segments) == 1:
            return self._handle_list()
        key = segments[1]
        if len(segments) == 2:
            return self._handle_metadata(key)
        if len(segments) == 3 and segments[2] == "roles":
            return self._handle_roles(key)
        if len(segments) == 4 and segments[2] == "views":
            return self._handle_view(key, segments[3])
        return self._error(404, f"unknown endpoint /{'/'.join(segments)}")

    # -- endpoint handlers -------------------------------------------------
    @staticmethod
    def _ok(payload: dict) -> Response:
        return (200, payload, ())

    @staticmethod
    def _error(status: int, message: str) -> Response:
        return (status, {"status": status, "error": message}, ())

    def _handle_index(self) -> Response:
        return self._ok(
            {
                "service": "repro release serving",
                "endpoints": [
                    "/healthz",
                    "/releases",
                    "/releases/<key>",
                    "/releases/<key>/roles",
                    "/releases/<key>/views/<role>",
                ],
            }
        )

    def _handle_health(self) -> Response:
        store: ReleaseStore = self.server.store
        policy: AccessPolicy = self.server.policy
        fault_tolerance = self.server.stats.snapshot()
        respcache = self.server.respcache
        response_cache: Dict[str, object] = {
            "enabled": respcache is not None,
            "gzip": self.server.gzip_enabled,
        }
        if respcache is not None:
            response_cache.update(respcache.stats())
        return self._ok(
            {
                "status": "degraded" if fault_tolerance["quarantined"] else "ok",
                "releases": len(store.keys()),
                "roles": policy.roles(),
                "cache": store.cache_info(),
                "response_cache": response_cache,
                "fault_tolerance": fault_tolerance,
                "staleness": self.server.staleness.summary(),
            }
        )

    def _handle_list(self) -> Response:
        return self._ok({"releases": self.server.store.keys()})

    def _integrity_failure(self, key: str, error: ReleaseIntegrityError) -> Response:
        """Map a failed read: 404 when absent, else quarantine + 500.

        The first corrupt read answers 500 (the honest status for a broken
        stored artefact) and quarantines the key at its current store
        fingerprint; :meth:`_check_quarantine` turns every later request
        into a fast 404-with-reason until the artefact changes.
        """
        store: ReleaseStore = self.server.store
        if not store.exists(key):
            return self._error(404, f"no release stored under key {key!r}")
        message = f"stored release {key!r} cannot be served: {error}"
        self.server.stats.quarantine(key, store.fingerprint(key), message)
        return self._error(500, message)

    def _check_quarantine(self, key: str) -> Optional[Response]:
        """A fast 404 for a key quarantined at the store's current bytes."""
        reason = self.server.stats.quarantine_reason(
            key, self.server.store.fingerprint(key)
        )
        if reason is None:
            return None
        return self._error(
            404, f"release {key!r} is quarantined as corrupt ({reason})"
        )

    def _handle_metadata(self, key: str) -> Response:
        quarantined = self._check_quarantine(key)
        if quarantined is not None:
            return quarantined
        store: ReleaseStore = self.server.store
        try:
            document = store.load_document(key)
        except ReleaseIntegrityError as error:
            return self._integrity_failure(key, error)
        if document.get("level_view"):
            return self._error(
                500, f"stored key {key!r} holds a single level view, not a release"
            )
        metadata = _release_metadata(key, document)
        metadata["provenance"] = document.get("provenance", {})
        metadata["staleness"] = self.server.staleness.staleness_for(key)
        return self._ok(metadata)

    def _handle_roles(self, key: str) -> Response:
        if not self.server.store.exists(key):
            return self._error(404, f"no release stored under key {key!r}")
        policy: AccessPolicy = self.server.policy
        roles = {
            role: {
                "level": policy.level_for(role),
                "information_level": policy.information_level(role).name,
            }
            for role in policy.roles()
        }
        return self._ok({"key": key, "roles": roles})

    def _handle_view(self, key: str, role: str) -> Response:
        quarantined = self._check_quarantine(key)
        if quarantined is not None:
            return quarantined
        store: ReleaseStore = self.server.store
        try:
            release = store.load(key)
        except ReleaseIntegrityError as error:
            return self._integrity_failure(key, error)
        policy: AccessPolicy = self.server.policy
        try:
            view = policy.view_for(role, release)
        except AccessLevelError as error:
            return self._error(403, f"role {role!r} cannot be served: {error}")
        return self._ok(
            {
                "key": key,
                "role": role,
                "information_level": policy.information_level(role).name,
                "dataset": release.dataset_name,
                "release": view.to_dict(),
            }
        )


class ReleaseServer:
    """A read-only HTTP server over a release store and an access policy.

    Parameters
    ----------
    store:
        The :class:`ReleaseStore` releases are served from.  Serving only
        ever reads; a publisher process populates the store separately.
    policy:
        Maps caller roles onto the information levels they may read.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` / :attr:`url`).
    verbose:
        Log one line per request to stderr (default quiet).
    max_in_flight:
        Bound on concurrently-handled requests; requests beyond it are shed
        with ``503`` + ``Retry-After`` instead of queueing without bound
        (``/healthz`` and response-cache hits are exempt).  ``None``
        (default) disables shedding.
    handler_timeout:
        Wall-clock seconds one request's handler work may take before the
        request answers ``503`` (``None`` disables — the default).
    response_cache_size:
        Routes kept in the fingerprint-keyed response byte cache (default
        :data:`~repro.serving.respcache.DEFAULT_RESPONSE_CACHE_SIZE`).  A
        cached route serves precomputed canonical bytes — with a strong
        ``ETag``, ``If-None-Match`` → ``304`` revalidation and a gzip
        variant — and performs zero serialisation and zero store reads;
        ``0`` disables the cache (and with it ETag/gzip support).
    gzip_enabled:
        Whether cached routes negotiate ``Content-Encoding: gzip`` via
        ``Accept-Encoding`` (default on; the identity and gzip variants are
        byte-stable either way).

    Examples
    --------
    >>> server = ReleaseServer(store, policy, port=0).start()   # doctest: +SKIP
    >>> fetch_json(server.url, "/healthz")["status"]            # doctest: +SKIP
    'ok'
    >>> server.stop()                                           # doctest: +SKIP
    """

    def __init__(
        self,
        store: ReleaseStore,
        policy: AccessPolicy,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        max_in_flight: Optional[int] = None,
        handler_timeout: Optional[float] = None,
        response_cache_size: int = DEFAULT_RESPONSE_CACHE_SIZE,
        gzip_enabled: bool = True,
    ):
        if max_in_flight is not None and int(max_in_flight) < 1:
            raise ValidationError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if handler_timeout is not None and float(handler_timeout) <= 0:
            raise ValidationError(f"handler_timeout must be > 0, got {handler_timeout}")
        if int(response_cache_size) < 0:
            raise ValidationError(
                f"response_cache_size must be >= 0, got {response_cache_size}"
            )
        self.store = store
        self.policy = policy
        self._http = _ReleaseHTTPServer(
            (host, port),
            ReleaseRequestHandler,
            store,
            policy,
            verbose,
            max_in_flight=int(max_in_flight) if max_in_flight is not None else None,
            handler_timeout=float(handler_timeout) if handler_timeout is not None else None,
            response_cache_size=int(response_cache_size),
            gzip_enabled=bool(gzip_enabled),
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def stats(self) -> ServingStats:
        """Live degradation + cache counters (sheds, timeouts, quarantine,
        ETag hits, gzip responses, cache invalidations)."""
        return self._http.stats

    @property
    def response_cache(self) -> Optional[ResponseCache]:
        """The fingerprint-keyed response byte cache (``None`` when disabled)."""
        return self._http.respcache

    # -- address -----------------------------------------------------------
    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ReleaseServer":
        """Serve on a daemon thread; returns ``self`` for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serving", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the listener and release the socket (idempotent)."""
        if self._thread is not None:
            self._http.shutdown()
            self._thread.join()
            self._thread = None
        self._http.server_close()

    def serve_forever(self) -> None:
        """Blocking serve loop for the CLI (Ctrl-C returns cleanly)."""
        try:
            self._http.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self._http.server_close()

    def __enter__(self) -> "ReleaseServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def create_server(
    store: Union[ReleaseStore, PathLike],
    policy: Union[AccessPolicy, PathLike],
    host: str = "127.0.0.1",
    port: int = 0,
    cache_size: int = DEFAULT_CACHE_SIZE,
    verbose: bool = False,
    max_in_flight: Optional[int] = None,
    handler_timeout: Optional[float] = None,
    response_cache_size: int = DEFAULT_RESPONSE_CACHE_SIZE,
    gzip_enabled: bool = True,
) -> ReleaseServer:
    """Build a :class:`ReleaseServer` from objects or from on-disk paths.

    ``store`` may be a SQLite store path (opened with a read-through cache of
    ``cache_size`` releases) and ``policy`` a JSON file in the
    :meth:`AccessPolicy.to_dict` format — exactly what ``repro serve`` passes
    through from its command line (including the ``max_in_flight`` /
    ``handler_timeout`` degradation knobs and the response-cache / gzip
    switches).
    """
    if not isinstance(store, ReleaseStore):
        store = ReleaseStore(store, cache_size=cache_size)
    if not isinstance(policy, AccessPolicy):
        policy = AccessPolicy.from_dict(from_json_file(policy))
    return ReleaseServer(
        store,
        policy,
        host=host,
        port=port,
        verbose=verbose,
        max_in_flight=max_in_flight,
        handler_timeout=handler_timeout,
        response_cache_size=response_cache_size,
        gzip_enabled=gzip_enabled,
    )
