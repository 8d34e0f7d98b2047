"""Tests for the multi-process serving fleet (:mod:`repro.serving.fleet`):
SO_REUSEPORT workers behind one port, readiness, respawn, fallback, and the
structured effective-config line `repro serve` logs.
"""

import json
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import ReleaseStore
from repro.exceptions import ServingError, ValidationError
from repro.grouping.specialization import SpecializationConfig
from repro.serving import (
    ServerFleet,
    fetch_json,
    format_config_line,
    http_get_response,
    reuseport_available,
)
from repro.utils.serialization import to_json_file

requires_reuseport = pytest.mark.skipif(
    not reuseport_available(), reason="SO_REUSEPORT unavailable on this platform"
)


@pytest.fixture(scope="module")
def release(dblp_graph):
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config, rng=11).disclose(dblp_graph)


@pytest.fixture(scope="module")
def policy():
    return AccessPolicy({"analyst": 0, "public": 2}, top_level=4)


@pytest.fixture(scope="module")
def store_file(release, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet-store") / "store.db"
    key = ReleaseStore(path).save(release)
    return SimpleNamespace(path=path, key=key)


def _wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.1)
    return predicate()


class TestValidation:
    def test_bad_parameters_rejected(self, store_file, policy, tmp_path):
        with pytest.raises(ValidationError):
            ServerFleet(store_file.path, policy, processes=0)
        with pytest.raises(ValidationError):
            ServerFleet(store_file.path, policy, max_respawns=-1)
        with pytest.raises(ValidationError):
            ServerFleet(tmp_path / "not-a-store", policy)

    def test_policy_accepted_as_object_dict_or_file(self, store_file, policy, tmp_path):
        from_object = ServerFleet(store_file.path, policy)
        from_dict = ServerFleet(store_file.path, policy.to_dict())
        path = to_json_file(policy.to_dict(), tmp_path / "policy.json")
        from_file = ServerFleet(store_file.path, path)
        for fleet in (from_object, from_dict, from_file):
            assert fleet.policy.roles() == policy.roles()


class TestFallback:
    def test_processes_1_serves_in_process(self, store_file, policy):
        with ServerFleet(store_file.path, policy, processes=1) as fleet:
            assert fleet.fallback_reason == "processes=1"
            assert fleet.describe()["reuseport"] is False
            assert fleet.worker_pids() == []
            assert fleet.alive_workers() == 1
            assert fetch_json(fleet.url, "/healthz")["status"] == "ok"

    def test_missing_reuseport_falls_back_gracefully(
        self, store_file, policy, monkeypatch
    ):
        import repro.serving.fleet as fleet_module

        monkeypatch.setattr(fleet_module, "reuseport_available", lambda: False)
        with ServerFleet(store_file.path, policy, processes=4) as fleet:
            assert fleet.processes == 1
            assert fleet.requested_processes == 4
            assert "SO_REUSEPORT" in fleet.fallback_reason
            path = f"/releases/{store_file.key}/views/public"
            assert fetch_json(fleet.url, path)["role"] == "public"


@requires_reuseport
class TestFleet:
    @pytest.fixture(scope="class")
    def fleet(self, store_file, policy):
        with ServerFleet(store_file.path, policy, processes=2) as fleet:
            yield fleet

    def test_all_workers_bind_one_port(self, fleet):
        assert fleet.processes == 2
        assert fleet.fallback_reason is None
        assert len(fleet.worker_pids()) == 2
        assert fleet.alive_workers() == 2

    def test_healthz_answers_through_the_shared_port(self, fleet):
        assert fetch_json(fleet.url, "/healthz")["status"] == "ok"

    def test_views_and_etags_are_consistent_across_workers(self, fleet, store_file):
        """Whichever worker the kernel picks, the body and the strong ETag
        are identical — both are pure functions of the stored bytes."""
        url = f"{fleet.url}/releases/{store_file.key}/views/public"
        responses = [http_get_response(url) for _ in range(8)]
        assert {response.status for response in responses} == {200}
        assert len({response.body for response in responses}) == 1
        assert len({response.etag for response in responses}) == 1
        # The shared ETag revalidates against any worker.
        revalidations = [
            http_get_response(url, etag=responses[0].etag).status for _ in range(4)
        ]
        assert set(revalidations) == {304}

    def test_dead_worker_is_respawned(self, fleet):
        victim = fleet.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        assert _wait_for(lambda: fleet.respawns >= 1)
        assert _wait_for(lambda: fleet.alive_workers() == 2)
        assert victim not in fleet.worker_pids()
        assert fetch_json(fleet.url, "/healthz")["status"] == "ok"


@requires_reuseport
class TestRespawnBudget:
    def test_respawns_stop_at_the_budget(self, store_file, policy):
        with ServerFleet(
            store_file.path, policy, processes=2, max_respawns=0
        ) as fleet:
            victim = fleet.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait_for(lambda: fleet.alive_workers() == 1)
            time.sleep(0.5)  # give the monitor time to (wrongly) respawn
            assert fleet.respawns == 0
            assert fleet.alive_workers() == 1
            # The surviving worker still serves.
            assert fetch_json(fleet.url, "/healthz")["status"] == "ok"


class TestConfigLine:
    def test_format_config_line_is_structured_json(self, store_file, policy):
        fleet = ServerFleet(store_file.path, policy, processes=2, gzip_enabled=False)
        line = format_config_line(fleet.describe())
        parsed = json.loads(line)
        assert parsed["event"] == "serve-config"
        assert parsed["requested_processes"] == 2
        assert parsed["gzip"] is False
        assert parsed["max_respawns"] == fleet.max_respawns
        # Sorted keys keep the line diff-stable across runs.
        assert list(parsed) == sorted(parsed)

    def test_describe_reports_the_effective_configuration(self, store_file, policy):
        fleet = ServerFleet(
            store_file.path,
            policy,
            processes=1,
            response_cache_size=7,
            max_in_flight=3,
        )
        config = fleet.describe()
        assert config["processes"] == 1
        assert config["fallback_reason"] == "processes=1"
        assert config["response_cache_size"] == 7
        assert config["max_in_flight"] == 3


class TestPublisherServe:
    def test_publisher_serve_with_processes_returns_a_fleet(
        self, dblp_graph, policy, tmp_path
    ):
        from repro.core.publisher import GraphPublisher

        publisher = GraphPublisher(dblp_graph, rng=3)
        release = publisher.release(epsilon_g=0.9)
        fleet = publisher.serve(release, policy, tmp_path / "store.db", processes=2)
        assert isinstance(fleet, ServerFleet)
        key = ReleaseStore(tmp_path / "store.db").keys()[0]
        with fleet:
            payload = fetch_json(fleet.url, f"/releases/{key}/views/public")
        assert payload["release"] == policy.view_for("public", release).to_dict()

    def test_publisher_serve_rejects_memory_stores_for_fleets(
        self, dblp_graph, policy
    ):
        from repro.core.publisher import GraphPublisher

        publisher = GraphPublisher(dblp_graph, rng=3)
        release = publisher.release(epsilon_g=0.9)
        store = ReleaseStore.in_memory()
        with pytest.raises(ValidationError, match="SQLite-backed"):
            publisher.serve(release, policy, store, processes=2)

    def test_publisher_serve_default_is_still_a_single_server(
        self, dblp_graph, policy, tmp_path
    ):
        from repro.core.publisher import GraphPublisher
        from repro.serving import ReleaseServer

        publisher = GraphPublisher(dblp_graph, rng=3)
        release = publisher.release(epsilon_g=0.9)
        server = publisher.serve(release, policy, tmp_path / "store.db")
        assert isinstance(server, ReleaseServer)


class TestCliServeFleet:
    def test_cli_logs_the_effective_config_to_stderr(
        self, store_file, policy, tmp_path
    ):
        """`repro serve` prints exactly one structured-JSON config line to
        stderr before the human-readable stdout banner."""
        import subprocess
        import sys
        import threading
        from pathlib import Path

        policy_path = to_json_file(policy.to_dict(), tmp_path / "policy.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--store",
                str(store_file.path),
                "--policy",
                str(policy_path),
                "--port",
                "0",
                "--processes",
                "2",
                "--no-gzip",
                "--response-cache-size",
                "64",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        holder = {}

        def read_config_line():
            holder["line"] = process.stderr.readline()

        reader = threading.Thread(target=read_config_line, daemon=True)
        reader.start()
        reader.join(timeout=30)
        try:
            config = json.loads(holder.get("line", "") or "{}")
            assert config.get("event") == "serve-config"
            assert config["requested_processes"] == 2
            assert config["gzip"] is False
            assert config["response_cache_size"] == 64
            if reuseport_available():
                assert config["processes"] == 2
            else:
                assert config["processes"] == 1
            url = f"http://127.0.0.1:{config['port']}"
            assert fetch_json(url, "/healthz")["status"] == "ok"
        finally:
            process.terminate()
            process.wait(timeout=15)
        # SIGTERM stops the whole fleet, not only the parent process.
        with pytest.raises(ServingError):
            fetch_json(url, "/healthz", timeout=2.0)


class TestServeForeverInterrupt:
    def test_interrupt_stops_the_fleet_then_propagates(self, monkeypatch):
        """Ctrl-C must shut the fleet down gracefully *and* reach the CLI's
        top-level handler, which turns it into the uniform exit status 130."""
        import repro.serving.fleet as fleet_module

        fleet = ServerFleet.__new__(ServerFleet)
        stopped = []
        fleet.stop = lambda: stopped.append(True)

        def interrupted_sleep(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(fleet_module.time, "sleep", interrupted_sleep)
        with pytest.raises(KeyboardInterrupt):
            fleet.serve_forever()
        assert stopped == [True]
