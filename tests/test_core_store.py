"""Tests for the persistent release store (JSON + npz round-trip)."""

import json

import pytest

from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.sqlite_backend import SqliteBackend
from repro.core.store import ReleaseStore, _answers_bytes
from repro.exceptions import ReleaseIntegrityError
from repro.grouping.specialization import SpecializationConfig


def _put_many(path, keys):
    backend = SqliteBackend(path)
    for key in keys:
        backend.put(key, b"{}", b"npz")


@pytest.fixture
def release(dblp_graph):
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config, rng=11).disclose(dblp_graph)


@pytest.fixture
def store(tmp_path):
    return ReleaseStore(tmp_path / "releases.db")


class TestRoundTrip:
    def test_save_load_is_lossless(self, store, release):
        key = store.save(release)
        loaded = store.load(key)
        # Bit-for-bit: answers travel as float64 npz arrays, everything else
        # as JSON, so the full document survives unchanged.
        assert loaded.to_dict() == release.to_dict()

    def test_save_is_idempotent_under_default_key(self, store, release):
        assert store.save(release) == store.save(release)
        assert len(store.keys()) == 1

    def test_explicit_keys_are_slugified(self, store, release):
        key = store.save(release, key="figure 1 / run #7")
        assert key.startswith("figure-1-run-7-")
        assert store.exists(key)
        # The raw key addresses the same release as the canonical slug.
        assert store.exists("figure 1 / run #7")
        assert store.load("figure 1 / run #7").levels() == release.levels()

    def test_lossy_slugs_cannot_collide(self, store, release):
        """Distinct raw keys that sanitise to the same text stay distinct."""
        key_a = store.save(release, key="exp 1")
        key_b = store.save(release, key="exp-1")
        assert key_a != key_b
        assert len(store.keys()) == 2

    def test_keys_lists_stored_releases_sorted(self, store, release):
        assert store.keys() == []
        store.save(release, key="beta")
        store.save(release, key="alpha")
        assert store.keys() == ["alpha", "beta"]

    def test_level_view_round_trip(self, store, release):
        view = release.level(release.levels()[0])
        key = store.save_level(view, key="owner-view")
        loaded = store.load_level(key)
        assert loaded.to_dict() == view.to_dict()

    def test_answers_split_out_of_the_json_document(self, store, release):
        key = store.save(release)
        document = json.loads(store.backend.get_document(key))
        for level_doc in document["levels"].values():
            for ref in level_doc["answers"].values():
                assert set(ref) == {"labels", "npz_key"}
        assert store.backend.get_answers(key)


class TestErrors:
    def test_load_missing_key_raises(self, store):
        with pytest.raises(ReleaseIntegrityError):
            store.load("nope")

    def test_load_level_missing_key_raises(self, store):
        with pytest.raises(ReleaseIntegrityError):
            store.load_level("nope")

    def test_load_level_rejects_full_release(self, store, release):
        key = store.save(release)
        with pytest.raises(ReleaseIntegrityError):
            store.load_level(key)

    def test_load_rejects_level_view(self, store, release):
        key = store.save_level(release.level(release.levels()[0]), key="one-view")
        with pytest.raises(ReleaseIntegrityError):
            store.load(key)

    def test_load_wraps_corrupt_document(self, store, release):
        key = store.save(release)
        store.backend.put(key, b"{not json", store.backend.get_answers(key))
        with pytest.raises(ReleaseIntegrityError):
            store.load(key)

    def test_load_wraps_corrupt_answers(self, store, release):
        key = store.save(release)
        store.backend.put(key, store.backend.get_document(key), b"not an npz")
        with pytest.raises(ReleaseIntegrityError):
            store.load(key)

    def test_load_wraps_invalid_structure(self, store, release):
        key = store.save(release)
        store.backend.put(key, b'{"levels": {}}', store.backend.get_answers(key))
        with pytest.raises(ReleaseIntegrityError):
            store.load(key)

    def test_missing_answer_arrays_detected(self, store, release):
        key = store.save(release)
        store.backend.put(key, store.backend.get_document(key), _answers_bytes({}))
        with pytest.raises(ReleaseIntegrityError):
            store.load(key)

    def test_delete_then_absent(self, store, release):
        key = store.save(release)
        store.delete(key)
        assert not store.exists(key)
        store.delete(key)  # idempotent


class TestBackendSurface:
    """The backend abstraction stays invisible through the historical API."""

    def test_path_store_exposes_root_and_backend(self, store, tmp_path):
        assert isinstance(store.backend, SqliteBackend)
        assert store.root == tmp_path / "releases.db"

    def test_in_memory_store_round_trips(self, release):
        store = ReleaseStore.in_memory()
        key = store.save(release)
        assert store.load(key).to_dict() == release.to_dict()

    def test_keys_survive_concurrent_writer_processes(self, tmp_path):
        """Four processes creating and filling one new store at once (a
        process-pool sweep) must all land: no writer fails or drops
        another's release."""
        import multiprocessing

        path = tmp_path / "shared.db"
        all_keys = [f"rel-{i:03d}" for i in range(48)]
        workers = [
            multiprocessing.Process(target=_put_many, args=(path, all_keys[lane::4]))
            for lane in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert all(worker.exitcode == 0 for worker in workers)
        assert SqliteBackend(path).keys() == sorted(all_keys)


class TestGetOrCreate:
    def test_builds_once_then_serves_from_store(self, store, release):
        calls = []

        def builder():
            calls.append(1)
            return release

        first, created_first = store.get_or_create("e6-run", builder)
        second, created_second = store.get_or_create("e6-run", builder)
        assert (created_first, created_second) == (True, False)
        assert len(calls) == 1
        assert second.to_dict() == first.to_dict()

    def test_loser_of_a_builder_race_loads_the_winner(self, store, release):
        """S2: a key that appears while our builder runs is served, not
        clobbered — the loser returns the winner's artefact, created=False."""

        def racing_builder():
            # Simulate a concurrent writer finishing first.
            store.save(release, key="raced")
            return release

        loaded, created = store.get_or_create("raced", racing_builder)
        assert created is False
        assert loaded.to_dict() == release.to_dict()

    def test_concurrent_writers_on_one_key_never_error(self, store, release):
        """Racing get_or_create calls all succeed and agree on the stored
        artefact."""
        self._race_get_or_create(store, release)

    def test_concurrent_writers_on_one_key_never_error_in_memory(self, release):
        """The same race on an in-memory store, whose connections share one
        memdb database."""
        self._race_get_or_create(ReleaseStore.in_memory(), release)

    @staticmethod
    def _race_get_or_create(store, release):
        import threading

        results, failures = [], []

        def writer():
            try:
                results.append(store.get_or_create("hot-key", lambda: release))
            except Exception as error:  # pragma: no cover - the regression
                failures.append(error)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(results) == 8
        assert store.keys().count("hot-key") == 1
        for loaded, _created in results:
            assert loaded.to_dict() == release.to_dict()

    def test_fingerprint_tracks_rewrites(self, store, release):
        assert store.fingerprint("absent") is None
        key = store.save(release, key="fp")
        first = store.fingerprint(key)
        assert first is not None
        store.backend.put(key, b"{broken", store.backend.get_answers(key))
        assert store.fingerprint(key) != first
