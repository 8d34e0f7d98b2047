"""Tests for the read-only HTTP serving layer (:mod:`repro.serving`)."""

import ast
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import ReleaseStore
from repro.grouping.specialization import SpecializationConfig
from repro.serving import ReleaseServer, ServingError, fetch_json, http_get
from repro.serving.server import canonical_json, create_server
from repro.utils.serialization import to_json_file


@pytest.fixture(scope="module")
def release(dblp_graph):
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config, rng=11).disclose(dblp_graph)


@pytest.fixture(scope="module")
def policy():
    # "auditor" maps to a level coarser than anything the release contains
    # (releases from a 4-level specialization hold levels 0..2), so serving
    # it must refuse rather than hand out a finer level.
    return AccessPolicy(
        {"analyst": 0, "partner": 1, "public": 2, "auditor": 3}, top_level=4
    )


@pytest.fixture(scope="module")
def served(release, policy, tmp_path_factory):
    """A running server over a SQLite store holding one release."""
    store = ReleaseStore(tmp_path_factory.mktemp("serving-store") / "store.db", cache_size=8)
    key = store.save(release)
    server = ReleaseServer(store, policy, port=0).start()
    yield SimpleNamespace(server=server, store=store, key=key)
    server.stop()


class TestEndpoints:
    def test_index_lists_endpoints(self, served):
        payload = fetch_json(served.server.url, "/")
        assert "/healthz" in payload["endpoints"]
        assert any("views" in endpoint for endpoint in payload["endpoints"])

    def test_healthz(self, served, policy):
        payload = fetch_json(served.server.url, "/healthz")
        assert payload["status"] == "ok"
        assert payload["releases"] == 1
        assert payload["roles"] == policy.roles()
        assert payload["cache"]["max_size"] == 8

    def test_list_releases(self, served):
        payload = fetch_json(served.server.url, "/releases")
        assert payload["releases"] == [served.key]

    def test_metadata_has_provenance_but_no_answers(self, served, release):
        payload = fetch_json(served.server.url, f"/releases/{served.key}")
        assert payload["key"] == served.key
        assert payload["dataset"] == release.dataset_name
        assert payload["levels"] == release.levels()
        assert payload["config"] == release.to_dict()["config"]
        assert payload["specialization_cost"] == release.specialization_cost.to_dict()
        for level_key, level_meta in payload["level_metadata"].items():
            view = release.level(int(level_key))
            assert level_meta["mechanism"] == view.mechanism
            assert level_meta["noise_scale"] == view.noise_scale
            assert level_meta["guarantee"] == view.guarantee.to_dict()
            assert level_meta["queries"] == sorted(view.answers)
            assert "answers" not in level_meta

    def test_roles_endpoint(self, served, policy):
        payload = fetch_json(served.server.url, f"/releases/{served.key}/roles")
        assert set(payload["roles"]) == set(policy.roles())
        assert payload["roles"]["public"]["information_level"] == "I4,2"


class TestViews:
    def test_views_bit_match_policy_view_for(self, served, release, policy):
        """The served view is exactly AccessPolicy.view_for on the stored release."""
        for role in ("analyst", "partner", "public"):
            payload = fetch_json(served.server.url, f"/releases/{served.key}/views/{role}")
            expected = policy.view_for(role, release)
            assert payload["role"] == role
            assert payload["information_level"] == policy.information_level(role).name
            assert payload["dataset"] == release.dataset_name
            assert payload["release"] == expected.to_dict()

    def test_views_differ_across_roles(self, served):
        analyst = fetch_json(served.server.url, f"/releases/{served.key}/views/analyst")
        public = fetch_json(served.server.url, f"/releases/{served.key}/views/public")
        assert analyst["release"]["level"] < public["release"]["level"]
        assert analyst["release"]["noise_scale"] < public["release"]["noise_scale"]

    def test_unknown_role_is_403(self, served):
        status, body = http_get(f"{served.server.url}/releases/{served.key}/views/nobody")
        assert status == 403
        assert "nobody" in json.loads(body)["error"]

    def test_role_with_unservable_level_is_403(self, served):
        """A role whose level is coarser than every released level is refused —
        never silently handed a finer (more sensitive) level."""
        status, body = http_get(f"{served.server.url}/releases/{served.key}/views/auditor")
        assert status == 403
        assert json.loads(body)["status"] == 403

    def test_unknown_release_is_404(self, served):
        for path in ("/releases/nope", "/releases/nope/roles", "/releases/nope/views/public"):
            status, body = http_get(served.server.url + path)
            assert status == 404, path
            assert "nope" in json.loads(body)["error"]

    def test_traversal_keys_are_404(self, served):
        """Dot keys ('..') must never resolve to paths outside the store root."""
        bait = served.store.root.parent / "release.json"
        bait.write_text('{"levels": {}}')
        try:
            for path in ("/releases/%2e%2e", "/releases/%2e%2e/views/analyst",
                         "/releases/%2e"):
                status, _ = http_get(served.server.url + path)
                assert status == 404, path
        finally:
            bait.unlink()

    def test_unknown_endpoint_is_404(self, served):
        assert http_get(served.server.url + "/budget")[0] == 404
        assert http_get(f"{served.server.url}/releases/{served.key}/raw")[0] == 404

    def test_write_verbs_are_405(self, served):
        import urllib.error
        import urllib.request

        for method in ("POST", "PUT", "DELETE", "PATCH"):
            request = urllib.request.Request(
                served.server.url + "/releases", data=b"{}", method=method
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 405, method

    def test_keep_alive_connection_survives_a_405_with_body(self, served):
        """A rejected write's body is drained, so the next request on the
        same keep-alive connection still parses cleanly."""
        import http.client

        connection = http.client.HTTPConnection(served.server.host, served.server.port)
        try:
            connection.request("POST", "/releases", body=b'{"x": 1}')
            response = connection.getresponse()
            assert response.status == 405
            response.read()
            # Same socket, next request: must be a clean 200, not a 400.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_malformed_content_length_still_gets_a_405(self, served):
        """A broken write request must be answered and closed, not dropped
        with a traceback."""
        import socket

        with socket.create_connection((served.server.host, served.server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /releases HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: abc\r\n\r\n"
            )
            sock.settimeout(10)
            response = sock.recv(4096)
        assert response.startswith(b"HTTP/1.1 405")

    def test_head_requests_get_headers_without_body(self, served):
        import http.client

        connection = http.client.HTTPConnection(served.server.host, served.server.port)
        try:
            connection.request("HEAD", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert int(response.getheader("Content-Length")) > 0
            assert response.read() == b""
            # The connection stays usable after the body-less response.
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    def test_keep_alive_requests_do_not_wait_on_delayed_acks(self, served):
        """A reply written in two segments must not sit in Nagle's buffer
        until the client's delayed ACK (~40 ms on Linux) releases it."""
        import http.client
        import time

        path = f"/releases/{served.key}/views/public"
        connection = http.client.HTTPConnection(served.server.host, served.server.port)
        try:
            connection.request("GET", path)
            connection.getresponse().read()  # warm the response cache
            start = time.perf_counter()
            for _ in range(20):
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 20 * 0.040 / 2

    def test_fetch_json_raises_serving_error_on_non_200(self, served):
        with pytest.raises(ServingError) as excinfo:
            fetch_json(served.server.url, "/releases/nope")
        assert excinfo.value.status == 404


class TestConcurrency:
    def test_threaded_requests_all_serve_correct_views(self, served, release, policy):
        """ThreadingHTTPServer handles parallel clients; every response is
        complete, parseable, and carries the right role's level."""
        roles = ("analyst", "partner", "public")
        expected = {role: policy.view_for(role, release).to_dict() for role in roles}
        failures = []

        def worker(role):
            try:
                for _ in range(10):
                    payload = fetch_json(
                        served.server.url, f"/releases/{served.key}/views/{role}"
                    )
                    assert payload["release"] == expected[role]
            except Exception as exc:  # noqa: BLE001 - collected for the main thread
                failures.append((role, exc))

        threads = [
            threading.Thread(target=worker, args=(roles[i % len(roles)],))
            for i in range(9)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures


class TestBackendParity:
    def test_views_byte_identical_across_backends(self, release, policy, tmp_path):
        """The same stored release serialises to byte-identical HTTP responses
        whether it sits in a SQLite store or an in-memory store."""
        sqlite_store = ReleaseStore(tmp_path / "store.db")
        memory_store = ReleaseStore.in_memory()
        key = sqlite_store.save(release)
        assert memory_store.save(release) == key

        with ReleaseServer(sqlite_store, policy, port=0) as on_disk:
            with ReleaseServer(memory_store, policy, port=0) as in_memory:
                for path in (
                    "/releases",
                    f"/releases/{key}",
                    f"/releases/{key}/views/analyst",
                    f"/releases/{key}/views/public",
                ):
                    status_a, body_a = http_get(on_disk.url + path)
                    status_b, body_b = http_get(in_memory.url + path)
                    assert (status_a, status_b) == (200, 200), path
                    assert body_a == body_b, path

    def test_canonical_json_is_deterministic(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})
        assert canonical_json({"x": 1}).endswith(b"\n")


class TestFailureModes:
    def test_metadata_and_roles_never_touch_answer_arrays(self, release, policy, tmp_path):
        """Metadata/roles are served from the document alone — they keep
        working with the npz gone, while views (which need it) fail loudly."""
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        store.backend.put(key, store.backend.get_document(key), b"")
        with ReleaseServer(store, policy, port=0) as server:
            assert http_get(f"{server.url}/releases/{key}")[0] == 200
            assert http_get(f"{server.url}/releases/{key}/roles")[0] == 200
            assert http_get(f"{server.url}/releases/{key}/views/public")[0] == 500

    def test_corrupt_stored_release_is_500(self, release, policy, tmp_path):
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        store.backend.put(key, b"{broken", store.backend.get_answers(key))
        with ReleaseServer(store, policy, port=0) as server:
            status, body = http_get(f"{server.url}/releases/{key}/views/public")
            assert status == 500
            assert "cannot be served" in json.loads(body)["error"]


class TestServingImportsNoDisclosureCode:
    #: Modules the serving package may import from repro: persistence, access
    #: resolution, release objects, serialisation — never the pipeline.
    ALLOWED = (
        "repro.core.access",
        "repro.core.release",
        "repro.core.store",
        "repro.exceptions",
        # The client's retry support: deterministic backoff only, stdlib-only
        # by design — it cannot pull pipeline code into the request path.
        "repro.execution.retry",
        "repro.serving",
        "repro.utils.serialization",
    )

    def test_serving_error_is_a_top_level_export(self):
        import repro

        assert repro.ServingError is ServingError
        assert "ServingError" in repro.__all__

    def test_request_path_never_imports_disclosure_code(self):
        """Audit every import in src/repro/serving: zero disclosure/pipeline
        code can run while serving, so serving can never spend budget."""
        serving_dir = Path(__file__).resolve().parent.parent / "src" / "repro" / "serving"
        offenders = []
        for source_path in sorted(serving_dir.glob("*.py")):
            tree = ast.parse(source_path.read_text(), filename=str(source_path))
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                for name in names:
                    if name.startswith("repro") and not name.startswith(self.ALLOWED):
                        offenders.append(f"{source_path.name}: {name}")
        assert not offenders, offenders


class TestPublisherServe:
    def test_publisher_serve_persists_then_serves(self, dblp_graph, policy, tmp_path):
        from repro.core.publisher import GraphPublisher

        publisher = GraphPublisher(dblp_graph, rng=3)
        release = publisher.release(epsilon_g=0.9)
        server = publisher.serve(release, policy, tmp_path / "store.db")
        key = server.store.keys()[0]
        with server:
            payload = fetch_json(server.url, f"/releases/{key}/views/public")
        assert payload["release"] == policy.view_for("public", release).to_dict()


class TestCliServe:
    def _start_cli(self, store_path, policy_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--store",
                str(store_path),
                "--policy",
                str(policy_path),
                "--port",
                "0",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        line_holder = {}

        def read_banner():
            line_holder["line"] = process.stdout.readline()

        reader = threading.Thread(target=read_banner, daemon=True)
        reader.start()
        reader.join(timeout=30)
        return process, line_holder.get("line", "")

    def test_repro_serve_end_to_end(self, release, policy, tmp_path):
        """`repro serve` serves a stored release over real HTTP: two roles'
        views bit-match AccessPolicy.view_for applied to the stored release."""
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        policy_path = to_json_file(policy.to_dict(), tmp_path / "policy.json")

        process, banner = self._start_cli(tmp_path / "store.db", policy_path)
        try:
            assert "http://" in banner, (banner, process.stderr.read() if process.poll() else "")
            url = banner.strip().rsplit(" on ", 1)[1]
            stored = store.load(key)
            for role in ("analyst", "public"):
                payload = fetch_json(url, f"/releases/{key}/views/{role}")
                assert payload["release"] == policy.view_for(role, stored).to_dict()
            assert fetch_json(url, "/healthz")["status"] == "ok"
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_serve_missing_policy_file_is_error(self, tmp_path, capsys):
        from repro.cli import main

        ReleaseStore(tmp_path / "store.db")
        code = main(
            [
                "serve",
                "--store",
                str(tmp_path / "store.db"),
                "--policy",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_missing_store_is_error(self, policy, tmp_path, capsys):
        """A typo'd store path must fail fast, not serve an empty store."""
        from repro.cli import main

        policy_path = to_json_file(policy.to_dict(), tmp_path / "policy.json")
        code = main(
            ["serve", "--store", str(tmp_path / "relaeses.db"), "--policy", str(policy_path)]
        )
        assert code == 2
        assert "store file" in capsys.readouterr().err
        assert not (tmp_path / "relaeses.db").exists()

    def test_serve_parser_requires_store_and_policy(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "p.json"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--store", "s"])


class TestLoadShedding:
    """S3: bounded in-flight requests shed cleanly and recover."""

    def _slow_served(self, release, policy, delay, **server_kwargs):
        from repro.execution.faults import FaultInjectingBackend

        backend = FaultInjectingBackend(ReleaseStore.in_memory().backend, delay={"get_document": delay})
        store = ReleaseStore(backend)
        key = store.save(release)
        server = ReleaseServer(store, policy, port=0, **server_kwargs)
        return server, key

    def test_overload_sheds_with_retry_after_and_socket_stays_aligned(
        self, release, policy
    ):
        import http.client
        import time

        server, key = self._slow_served(release, policy, delay=1.0, max_in_flight=1)
        with server:
            slow = threading.Thread(
                target=http_get, args=(f"{server.url}/releases/{key}",), daemon=True
            )
            slow.start()
            time.sleep(0.3)  # let the slow request occupy the only slot

            connection = http.client.HTTPConnection(server.host, server.port)
            try:
                # Keep-alive client during overload: clean 503 + Retry-After.
                connection.request("GET", "/releases")
                response = connection.getresponse()
                assert response.status == 503
                assert response.getheader("Retry-After") is not None
                payload = json.loads(response.read())
                assert "in-flight" in payload["error"]

                # /healthz is exempt: the probe sees through the overload
                # and reports the shed on the same, still-aligned socket.
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                health = json.loads(response.read())
                assert health["fault_tolerance"]["shed"] >= 1

                # Once the load drops the same socket serves 200s again.
                slow.join(timeout=10)
                connection.request("GET", "/releases")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["releases"] == [key]
            finally:
                connection.close()

    def test_handler_timeout_answers_503(self, release, policy):
        server, key = self._slow_served(
            release, policy, delay=5.0, handler_timeout=0.2
        )
        with server:
            status, body = http_get(f"{server.url}/releases/{key}")
            assert status == 503
            assert "timeout" in json.loads(body)["error"]
            assert server.stats.handler_timeouts == 1
            # No quarantine involved: the server is slow, not corrupt.
            assert fetch_json(server.url, "/healthz")["status"] == "ok"

    def test_unbounded_server_never_sheds(self, served):
        payload = fetch_json(served.server.url, "/healthz")
        assert payload["fault_tolerance"]["shed"] == 0

    def test_bad_limits_rejected(self, release, policy):
        from repro.exceptions import ValidationError

        store = ReleaseStore.in_memory()
        with pytest.raises(ValidationError):
            ReleaseServer(store, policy, port=0, max_in_flight=0)
        with pytest.raises(ValidationError):
            ReleaseServer(store, policy, port=0, handler_timeout=-1.0)


class TestQuarantine:
    """A corrupt stored artefact answers 500 once, then fast 404s."""

    def test_corrupt_release_is_quarantined_then_recovers(
        self, release, policy, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        store.backend.put(key, b"{broken", store.backend.get_answers(key))
        with ReleaseServer(store, policy, port=0) as server:
            # First read: the honest 500 — and the key is quarantined.
            status, body = http_get(f"{server.url}/releases/{key}/views/public")
            assert status == 500
            assert "cannot be served" in json.loads(body)["error"]

            # Later requests: fast 404 with the corruption reason, instead
            # of re-reading (and re-failing on) the artefact.
            for path in (f"/releases/{key}/views/public", f"/releases/{key}"):
                status, body = http_get(server.url + path)
                assert status == 404
                assert "quarantined" in json.loads(body)["error"]

            # Health reports the degradation while it lasts.
            health = fetch_json(server.url, "/healthz")
            assert health["status"] == "degraded"
            assert key in health["fault_tolerance"]["quarantined"]
            assert health["fault_tolerance"]["backend_errors"] >= 1

            # Republishing the key changes the store fingerprint, which
            # clears the quarantine: the next read serves the fresh bytes.
            store.save(release, key=key)
            payload = fetch_json(server.url, f"/releases/{key}/views/public")
            assert payload["role"] == "public"
            assert fetch_json(server.url, "/healthz")["status"] == "ok"

    def test_transient_load_error_is_not_quarantined(self, release, policy, tmp_path, monkeypatch):
        """A parser failure that says nothing about the stored bytes (here a
        ``RuntimeError`` from ``np.load`` on legacy npz answers, like CPython
        3.11's thread-unsafe ``ast.literal_eval`` raising ``SystemError``)
        fails that one request but leaves the key servable."""
        import io

        import numpy as np

        from repro.core.store import _strip_answers

        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        buffer = io.BytesIO()
        np.savez(buffer, **_strip_answers(release.to_dict())[1])
        store.backend.put(key, store.backend.get_document(key), buffer.getvalue())
        self._assert_transient_failure_not_quarantined(store, key, policy, monkeypatch, "load")

    def test_transient_container_parse_error_is_not_quarantined(
        self, release, policy, tmp_path, monkeypatch
    ):
        """The same for the raw answers container, failing in ``np.frombuffer``."""
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        self._assert_transient_failure_not_quarantined(
            store, key, policy, monkeypatch, "frombuffer"
        )

    @staticmethod
    def _assert_transient_failure_not_quarantined(store, key, policy, monkeypatch, parser):
        import repro.core.store as store_module

        real_parser = getattr(store_module.np, parser)
        failures = []

        def flaky_parser(*args, **kwargs):
            if not failures:
                failures.append(True)
                raise RuntimeError("transient parser failure")
            return real_parser(*args, **kwargs)

        monkeypatch.setattr(store_module.np, parser, flaky_parser)
        with ReleaseServer(store, policy, port=0) as server:
            status, _ = http_get(f"{server.url}/releases/{key}/views/public")
            assert status in (500, 503)
            assert failures
            health = fetch_json(server.url, "/healthz")
            assert key not in health["fault_tolerance"]["quarantined"]
            status, body = http_get(f"{server.url}/releases/{key}/views/public")
            assert status == 200
            assert json.loads(body)["role"] == "public"


class TestClientRetry:
    def test_retries_503_until_success(self, tmp_path):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.execution.retry import RetryPolicy

        counts = {"requests": 0}

        class Flaky(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                counts["requests"] += 1
                if counts["requests"] < 3:
                    body = b'{"error": "overloaded"}'
                    self.send_response(503)
                    self.send_header("Retry-After", "1")
                else:
                    body = b'{"ok": true}'
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Flaky)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            policy = RetryPolicy(max_attempts=4, backoff_base=0.01, jitter=0.0)
            payload = fetch_json(url, "/anything", retry=policy)
            assert payload == {"ok": True}
            assert counts["requests"] == 3
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_503s_exhaust_the_attempt_budget(self, tmp_path):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.execution.retry import RetryPolicy

        class AlwaysShedding(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_GET(self):
                body = b'{"error": "overloaded"}'
                self.send_response(503)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), AlwaysShedding)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            policy = RetryPolicy(max_attempts=2, backoff_base=0.01, jitter=0.0)
            status, _ = http_get(f"{url}/x", retry=policy)
            assert status == 503  # final attempt's outcome, returned not raised
        finally:
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_transport_failures_retry_then_raise(self):
        import socket

        from repro.execution.retry import RetryPolicy

        # Reserve a port and close it: connections are refused.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01, jitter=0.0)
        with pytest.raises(ServingError):
            http_get(f"http://127.0.0.1:{port}/healthz", timeout=0.5, retry=policy)
