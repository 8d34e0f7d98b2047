"""Tests for the fingerprint-keyed response cache (:mod:`repro.serving.respcache`)
and its integration into the serving hot path: ETag/304 revalidation, gzip
negotiation, staleness-on-republish, and the zero-work acceptance criterion
(a warm cached GET performs zero JSON serialisation and zero store reads).
"""

import gzip
import http.client
import json
import threading
from types import SimpleNamespace

import pytest

from backend_matrix import make_release_store, store_backend_matrix
from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import ReleaseStore
from repro.exceptions import ValidationError
from repro.execution.faults import FaultInjectingBackend
from repro.grouping.specialization import SpecializationConfig
from repro.serving import (
    ReleaseServer,
    ResponseCache,
    ServingError,
    fetch_json,
    http_get,
    http_get_response,
    make_etag,
)
from repro.serving.respcache import CachedResponse


@pytest.fixture(scope="module")
def release(dblp_graph):
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config, rng=11).disclose(dblp_graph)


@pytest.fixture(scope="module")
def other_release(dblp_graph):
    """A second disclosure of the same graph — different noise, different bytes."""
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config, rng=12).disclose(dblp_graph)


@pytest.fixture(scope="module")
def policy():
    return AccessPolicy({"analyst": 0, "public": 2}, top_level=4)


@pytest.fixture
def served(release, policy, tmp_path):
    """A caching server over a SQLite store holding one release."""
    store = ReleaseStore(tmp_path / "store.db", cache_size=8)
    key = store.save(release)
    with ReleaseServer(store, policy, port=0) as server:
        yield SimpleNamespace(server=server, store=store, key=key)


class TestResponseCacheUnit:
    def test_make_etag_is_strong_and_distinct(self):
        tag = make_etag("fp-1", "/releases/k")
        assert tag.startswith('"') and tag.endswith('"')
        assert tag != make_etag("fp-2", "/releases/k")  # fingerprint pins it
        assert tag != make_etag("fp-1", "/releases/j")  # so does the route

    def test_cached_gzip_variant_is_deterministic_and_round_trips(self):
        body = b'{"answer": 42}\n' * 100
        one = CachedResponse("fp", "/r", body)
        two = CachedResponse("fp", "/r", body)
        assert one.gzip_body == two.gzip_body  # mtime=0: byte-stable
        assert gzip.decompress(one.gzip_body) == body
        assert len(one.gzip_body) < len(body)

    def test_get_requires_matching_fingerprint(self):
        cache = ResponseCache(max_entries=4)
        cache.put("/r", "fp-1", b"body")
        assert cache.get("/r", "fp-1").body == b"body"
        assert cache.get("/r", None) is None  # absent key: nothing valid
        assert cache.get("/missing", "fp-1") is None

    def test_stale_fingerprint_invalidates_and_fires_callback(self):
        fired = []
        cache = ResponseCache(max_entries=4, on_invalidation=lambda: fired.append(1))
        cache.put("/r", "fp-1", b"old")
        assert cache.get("/r", "fp-2") is None  # republished behind the cache
        assert fired == [1]
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1

    def test_lru_eviction_beyond_max_entries(self):
        cache = ResponseCache(max_entries=2)
        cache.put("/a", "fp", b"a")
        cache.put("/b", "fp", b"b")
        assert cache.get("/a", "fp") is not None  # refresh /a
        cache.put("/c", "fp", b"c")  # evicts /b, the LRU entry
        assert cache.get("/b", "fp") is None
        assert cache.get("/a", "fp") is not None
        assert cache.get("/c", "fp") is not None

    def test_stats_counters(self):
        cache = ResponseCache(max_entries=4)
        cache.put("/r", "fp", b"x")
        cache.get("/r", "fp")
        cache.get("/other", "fp")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4

    def test_zero_or_negative_max_entries_rejected(self):
        with pytest.raises(ValidationError):
            ResponseCache(max_entries=0)
        with pytest.raises(ValidationError):
            ResponseCache(max_entries=-1)


class TestCounterAudit:
    """The accounting invariant: every lookup is exactly one hit or miss
    (``hits + misses == lookups``), and an invalidate-and-rebuild request
    is one miss plus one invalidation — never double-counted."""

    def test_hits_plus_misses_equals_lookups(self):
        cache = ResponseCache(max_entries=4)
        cache.get("/r", "fp-1")  # cold miss
        cache.put("/r", "fp-1", b"x")
        cache.get("/r", "fp-1")  # hit
        cache.get("/r", "fp-2")  # stale: one invalidation, same single miss
        cache.put("/r", "fp-2", b"y")  # rebuild: touches no counter
        cache.get("/r", "fp-2")  # hit
        cache.get("/r", None)  # absent key: entry dropped, one miss
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["lookups"] == 5
        assert stats["hits"] == 2
        assert stats["misses"] == 3
        assert stats["invalidations"] == 2

    def test_stale_rebuild_counts_one_miss_and_one_invalidation(self):
        cache = ResponseCache(max_entries=4)
        cache.put("/r", "fp-1", b"old")
        cache.get("/r", "fp-1")
        before = cache.stats()
        # One republished-key request: stale lookup, then rebuild.
        assert cache.get("/r", "fp-2") is None
        cache.put("/r", "fp-2", b"new")
        after = cache.stats()
        assert after["lookups"] == before["lookups"] + 1
        assert after["misses"] == before["misses"] + 1
        assert after["invalidations"] == before["invalidations"] + 1
        assert after["hits"] == before["hits"]


class TestConditionalGet:
    def test_cacheable_routes_carry_a_strong_etag_and_vary(self, served):
        for path in (
            f"/releases/{served.key}",
            f"/releases/{served.key}/roles",
            f"/releases/{served.key}/views/public",
        ):
            response = http_get_response(served.server.url + path)
            assert response.status == 200, path
            assert response.etag is not None and response.etag.startswith('"'), path
            assert response.headers["vary"] == "Accept-Encoding", path

    def test_uncacheable_routes_have_no_etag(self, served):
        for path in ("/", "/healthz", "/releases"):
            response = http_get_response(served.server.url + path)
            assert response.status == 200, path
            assert response.etag is None, path

    def test_if_none_match_hit_is_an_empty_304(self, served):
        url = f"{served.server.url}/releases/{served.key}/views/public"
        first = http_get_response(url)
        revalidated = http_get_response(url, etag=first.etag)
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.etag == first.etag
        # A 304 has no body by definition — no Content-Length is sent.
        assert "content-length" not in revalidated.headers
        assert served.server.stats.etag_hits >= 1

    def test_if_none_match_miss_gets_the_full_body(self, served):
        url = f"{served.server.url}/releases/{served.key}/views/public"
        fresh = http_get_response(url, etag='"0000feedbeef0000"')
        assert fresh.status == 200
        assert fresh.body  # a non-matching tag revalidates nothing

    def test_weak_and_wildcard_if_none_match_forms(self, served):
        url = f"{served.server.url}/releases/{served.key}/views/public"
        etag = http_get_response(url).etag
        assert http_get_response(url, etag=f"W/{etag}").status == 304
        assert http_get_response(url, etag="*").status == 304
        assert http_get_response(url, etag=f'"zzz", {etag}').status == 304

    def test_304_keeps_the_keep_alive_connection_aligned(self, served):
        """http.client reuses the socket across a 304 — the next request on
        the same connection must parse cleanly (no stray body bytes)."""
        url_path = f"/releases/{served.key}/views/public"
        etag = http_get_response(served.server.url + url_path).etag
        connection = http.client.HTTPConnection(
            served.server.host, served.server.port
        )
        try:
            connection.request("GET", url_path, headers={"If-None-Match": etag})
            response = connection.getresponse()
            assert response.status == 304
            assert response.read() == b""
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_head_on_a_cached_route_sends_headers_only(self, served):
        url_path = f"/releases/{served.key}/views/public"
        http_get(served.server.url + url_path)  # warm the cache
        connection = http.client.HTTPConnection(
            served.server.host, served.server.port
        )
        try:
            connection.request("HEAD", url_path, headers={"Accept-Encoding": "identity"})
            response = connection.getresponse()
            assert response.status == 200
            assert int(response.getheader("Content-Length")) > 0
            assert response.getheader("ETag") is not None
            assert response.read() == b""
        finally:
            connection.close()

    def test_error_responses_are_never_cached(self, served):
        assert http_get_response(f"{served.server.url}/releases/nope").etag is None
        assert (
            http_get_response(
                f"{served.server.url}/releases/{served.key}/views/nobody"
            ).etag
            is None
        )
        assert len(served.server.response_cache) <= 3  # only the 200 routes


class TestInvalidationOnRepublish:
    def test_republished_key_is_never_served_stale(
        self, release, other_release, policy, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store.db", cache_size=8)
        key = store.save(release)
        with ReleaseServer(store, policy, port=0) as server:
            url = f"{server.url}/releases/{key}/views/public"
            before = http_get_response(url)
            assert before.status == 200

            store.save(other_release, key=key)  # republish behind the server

            after = http_get_response(url)
            assert after.status == 200
            assert after.etag != before.etag
            assert after.body != before.body
            assert json.loads(after.body)["release"] == policy.view_for(
                "public", other_release
            ).to_dict()
            assert server.stats.cache_invalidations >= 1

            # The old ETag no longer revalidates: full fresh body, not a 304.
            assert http_get_response(url, etag=before.etag).status == 200

    def test_republish_invalidates_on_a_memory_backend_too(
        self, release, other_release, policy
    ):
        store = ReleaseStore.in_memory()
        key = store.save(release)
        with ReleaseServer(store, policy, port=0) as server:
            url = f"{server.url}/releases/{key}/views/analyst"
            before = http_get_response(url)
            store.save(other_release, key=key)  # rev counter bumps
            after = http_get_response(url)
            assert after.etag != before.etag
            assert after.body != before.body

    def test_republish_invalidates_on_a_sqlite_backend_too(
        self, release, other_release, policy, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        with ReleaseServer(store, policy, port=0) as server:
            url = f"{server.url}/releases/{key}/views/analyst"
            before = http_get_response(url)
            store.save(other_release, key=key)  # revision column bumps
            after = http_get_response(url)
            assert after.etag != before.etag
            assert after.body != before.body


class TestBackendParityWithCache:
    @pytest.mark.parametrize("backend_kind", store_backend_matrix("memory", "sqlite"))
    def test_cached_bodies_byte_identical_across_backends(
        self, release, policy, tmp_path, backend_kind
    ):
        """With the response cache on, a SQLite-backed reference server and
        a server on any backend still serve byte-identical bodies (their
        ETags may differ — fingerprints are backend-specific — but the
        canonical bytes cannot)."""
        reference_store = ReleaseStore(tmp_path / "reference.db")
        other_store = make_release_store(backend_kind, tmp_path)
        key = reference_store.save(release)
        assert other_store.save(release) == key
        with ReleaseServer(reference_store, policy, port=0) as on_disk:
            with ReleaseServer(other_store, policy, port=0) as other:
                for path in (
                    f"/releases/{key}",
                    f"/releases/{key}/views/analyst",
                    f"/releases/{key}/views/public",
                ):
                    for _ in range(2):  # cold then cached
                        body_a = http_get_response(on_disk.url + path).body
                        body_b = http_get_response(other.url + path).body
                        assert body_a == body_b, path

    def test_cached_body_matches_cache_disabled_body(self, release, policy, tmp_path):
        """The cache must be invisible in the bytes: a caching server and a
        cache-disabled server serialise the same stored release identically."""
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        path = f"/releases/{key}/views/public"
        with ReleaseServer(store, policy, port=0) as caching:
            with ReleaseServer(
                store, policy, port=0, response_cache_size=0
            ) as uncached:
                cached_body = http_get_response(caching.url + path).body
                plain = http_get_response(uncached.url + path)
                assert cached_body == plain.body
                assert plain.etag is None  # no cache, no ETag support


class TestGzipNegotiation:
    def _raw_get(self, server, path, accept_encoding):
        connection = http.client.HTTPConnection(server.host, server.port)
        try:
            headers = {}
            if accept_encoding is not None:
                headers["Accept-Encoding"] = accept_encoding
            connection.request("GET", path, headers=headers)
            response = connection.getresponse()
            return SimpleNamespace(
                status=response.status,
                body=response.read(),
                encoding=response.getheader("Content-Encoding"),
                vary=response.getheader("Vary"),
            )
        finally:
            connection.close()

    def test_gzip_negotiated_and_decodes_to_identity_bytes(self, served):
        path = f"/releases/{served.key}/views/public"
        plain = self._raw_get(served.server, path, "identity")
        zipped = self._raw_get(served.server, path, "gzip")
        assert plain.encoding is None
        assert zipped.encoding == "gzip"
        assert gzip.decompress(zipped.body) == plain.body
        assert len(zipped.body) < len(plain.body)
        assert plain.vary == zipped.vary == "Accept-Encoding"
        assert served.server.stats.gzip_responses >= 1

    def test_accept_encoding_q_values(self, served):
        path = f"/releases/{served.key}/views/public"
        assert self._raw_get(served.server, path, "gzip;q=0").encoding is None
        assert self._raw_get(served.server, path, "gzip;q=0.5").encoding == "gzip"
        assert self._raw_get(served.server, path, "*").encoding == "gzip"
        assert self._raw_get(served.server, path, "*;q=0").encoding is None
        assert self._raw_get(served.server, path, "br").encoding is None
        assert self._raw_get(served.server, path, None).encoding is None

    def test_gzip_disabled_server_always_serves_identity(
        self, release, policy, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        with ReleaseServer(store, policy, port=0, gzip_enabled=False) as server:
            response = self._raw_get(server, f"/releases/{key}/views/public", "gzip")
            assert response.encoding is None
            json.loads(response.body)  # identity bytes, parseable as-is
            # ETag/304 revalidation still works without gzip.
            url = f"{server.url}/releases/{key}/views/public"
            etag = http_get_response(url).etag
            assert etag is not None
            assert http_get_response(url, etag=etag).status == 304


class TestZeroWorkWhenWarm:
    """The acceptance criterion: a warm cached GET does zero JSON
    serialisation and zero store reads — only a fingerprint check."""

    @pytest.mark.parametrize("backend_kind", store_backend_matrix())
    def test_warm_cached_get_reads_nothing_and_serialises_nothing(
        self, release, policy, tmp_path, monkeypatch, backend_kind
    ):
        from repro.core.sqlite_backend import SqliteBackend
        from repro.serving import server as server_module

        if backend_kind == "sqlite":
            inner = SqliteBackend(tmp_path / "store.db")
        else:
            inner = ReleaseStore.in_memory().backend
        backend = FaultInjectingBackend(inner)
        # cache_size=0: every uncached view request would hit the backend,
        # so a flat call count below is attributable to the response cache.
        store = ReleaseStore(backend, cache_size=0)
        key = store.save(release)

        serialisations = {"count": 0}
        real_canonical_json = server_module.canonical_json

        def counting_canonical_json(payload):
            serialisations["count"] += 1
            return real_canonical_json(payload)

        monkeypatch.setattr(server_module, "canonical_json", counting_canonical_json)

        with ReleaseServer(store, policy, port=0) as server:
            url = f"{server.url}/releases/{key}/views/public"
            first = http_get_response(url)
            assert first.status == 200

            warm_reads = dict(backend.calls)
            warm_serialisations = serialisations["count"]
            assert warm_serialisations >= 1  # the cold request did serialise

            for _ in range(3):
                assert http_get_response(url).status == 200
            for _ in range(3):
                assert http_get_response(url, etag=first.etag).status == 304

            assert serialisations["count"] == warm_serialisations
            assert backend.calls.get("get_document", 0) == warm_reads.get(
                "get_document", 0
            )
            assert backend.calls.get("get_answers", 0) == warm_reads.get(
                "get_answers", 0
            )
            # The freshness check is the only backend traffic left.
            assert backend.calls["fingerprint"] > warm_reads["fingerprint"]

    def test_cache_disabled_server_serialises_every_request(
        self, release, policy, monkeypatch
    ):
        from repro.serving import server as server_module

        backend = FaultInjectingBackend(ReleaseStore.in_memory().backend)
        store = ReleaseStore(backend, cache_size=0)
        key = store.save(release)
        with ReleaseServer(store, policy, port=0, response_cache_size=0) as server:
            url = f"{server.url}/releases/{key}/views/public"
            http_get(url)
            reads_after_one = backend.calls["get_document"]
            http_get(url)
            assert backend.calls["get_document"] == reads_after_one + 1


class TestHealthzCacheCounters:
    def test_healthz_surfaces_cache_and_stats_counters(self, served):
        url = f"{served.server.url}/releases/{served.key}/views/public"
        first = http_get_response(url)  # miss + fill
        http_get_response(url)  # hit (gzip variant)
        http_get_response(url, etag=first.etag)  # 304

        health = fetch_json(served.server.url, "/healthz")
        cache = health["response_cache"]
        assert cache["enabled"] is True
        assert cache["gzip"] is True
        assert cache["entries"] >= 1
        assert cache["hits"] >= 1
        assert cache["misses"] >= 1
        fault_tolerance = health["fault_tolerance"]
        assert fault_tolerance["etag_hits"] >= 1
        assert fault_tolerance["gzip_responses"] >= 1
        assert "cache_invalidations" in fault_tolerance

    def test_healthz_response_cache_counters_add_up(
        self, release, other_release, policy, tmp_path
    ):
        """Through a real request mix — cold fill, warm hits, a 304, and an
        invalidate-and-rebuild after a republish — the ``/healthz`` numbers
        must satisfy ``hits + misses == lookups``."""
        store = ReleaseStore(tmp_path / "store.db", cache_size=8)
        key = store.save(release)
        with ReleaseServer(store, policy, port=0) as server:
            url = f"{server.url}/releases/{key}/views/public"
            first = http_get_response(url)  # miss + fill
            http_get_response(url)  # hit
            http_get_response(url, etag=first.etag)  # 304 off the cached entry
            store.save(other_release, key=key)  # republish behind the server
            http_get_response(url)  # invalidation + single miss + rebuild
            cache = fetch_json(server.url, "/healthz")["response_cache"]
            assert cache["hits"] + cache["misses"] == cache["lookups"]
            assert cache["invalidations"] >= 1
            assert cache["misses"] >= 2

    def test_healthz_reports_disabled_cache(self, release, policy):
        store = ReleaseStore.in_memory()
        store.save(release)
        with ReleaseServer(store, policy, port=0, response_cache_size=0) as server:
            cache = fetch_json(server.url, "/healthz")["response_cache"]
            assert cache["enabled"] is False
            assert "hits" not in cache

    def test_negative_response_cache_size_rejected(self, release, policy):
        store = ReleaseStore.in_memory()
        with pytest.raises(ValidationError):
            ReleaseServer(store, policy, port=0, response_cache_size=-1)


def _canned_server(status, body, headers):
    """A one-trick HTTP server answering every GET with canned bytes."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Canned(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):
            self.send_response(status)
            for name, value in headers:
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Canned)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, thread, f"http://127.0.0.1:{httpd.server_address[1]}"


class TestClientDecoding:
    """Satellite (a): the stdlib client decodes gzip, rejects unknown
    encodings, and bounds body size on the wire and after decompression."""

    def test_http_get_transparently_decodes_gzip(self, served):
        url = f"{served.server.url}/releases/{served.key}/views/public"
        status, body = http_get(url)  # default accept_gzip=True
        assert status == 200
        payload = json.loads(body)  # identity bytes, whatever the transfer
        assert payload["role"] == "public"

    def test_unknown_content_encoding_raises(self):
        httpd, thread, url = _canned_server(
            200, b"\x00\x01\x02", [("Content-Encoding", "br")]
        )
        try:
            with pytest.raises(ServingError, match="Content-Encoding"):
                http_get(f"{url}/x")
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_wire_cap_rejects_oversized_identity_bodies(self):
        httpd, thread, url = _canned_server(200, b"x" * 100_000, [])
        try:
            with pytest.raises(ServingError, match="max_body_bytes"):
                http_get(f"{url}/x", max_body_bytes=1_000)
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_decompression_cap_rejects_gzip_bombs(self):
        bomb = gzip.compress(b"\x00" * 5_000_000, mtime=0)  # ~5 KB on the wire
        httpd, thread, url = _canned_server(
            200, bomb, [("Content-Encoding", "gzip")]
        )
        try:
            with pytest.raises(ServingError, match="max_body_bytes"):
                http_get(f"{url}/x", max_body_bytes=100_000)
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_corrupt_gzip_body_raises(self):
        httpd, thread, url = _canned_server(
            200, b"not gzip at all", [("Content-Encoding", "gzip")]
        )
        try:
            with pytest.raises(ServingError, match="gzip"):
                http_get(f"{url}/x")
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_served_response_carries_lowercased_headers(self, served):
        response = http_get_response(served.server.url + "/healthz")
        assert "content-type" in response.headers
        assert response.headers["content-type"].startswith("application/json")
