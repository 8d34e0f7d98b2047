"""Tests for the persistent release store (JSON + answers-container round-trip)."""

import io
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.sqlite_backend import SqliteBackend
from repro.core import store as store_module
from repro.core.store import ReleaseStore, _answers_bytes, _strip_answers
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
        # Bit-for-bit: answers travel as raw float64 arrays, everything else
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


# ----------------------------------------------------------------------
# The raw answers container
# ----------------------------------------------------------------------
#: Any 64-bit word, read as a float64 (so every NaN payload, both zeros,
#: both infinities and every subnormal) or as an int64.
words = st.integers(min_value=0, max_value=2**64 - 1)
answer_arrays = st.dictionaries(
    st.text(max_size=12),
    st.tuples(st.sampled_from([np.float64, np.int64]), st.lists(words, max_size=6)).map(
        lambda spec: np.array(spec[1], dtype=np.uint64).view(spec[0])
    ),
    max_size=5,
)


def _load_raw(raw, key="raw"):
    """The arrays a store reads back from ``raw`` answers bytes."""
    store = ReleaseStore.in_memory()
    store.backend.put(key, b"{}", raw)
    return store._load_arrays(key, key)


def _assert_bit_identical(actual, expected):
    assert list(actual) == list(expected)
    for name, values in expected.items():
        assert actual[name].dtype == values.dtype, name
        assert actual[name].tobytes() == values.tobytes(), name


class TestAnswersContainer:
    @given(arrays=answer_arrays)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_bit_exact(self, arrays):
        raw = _answers_bytes(arrays)
        assert raw.startswith(b"repro-answers 1\n")
        _assert_bit_identical(_load_raw(raw), arrays)

    def test_special_float64_values_survive_bit_for_bit(self):
        nan_with_payload = np.array([0x7FF800000000BEEF], dtype=np.uint64).view(np.float64)[0]
        values = np.array(
            [-0.0, 0.0, np.inf, -np.inf, nan_with_payload, -np.nan, 5e-324, -2.2250738585072e-308],
            dtype=np.float64,
        )
        arrays = {"specials": values, "empty": np.zeros(0), "counts": np.arange(3)}
        _assert_bit_identical(_load_raw(_answers_bytes(arrays)), arrays)
        assert _load_raw(_answers_bytes({})) == {}

    def test_a_saved_release_writes_the_container(self, store, release):
        key = store.save(release)
        raw = store.backend.get_answers(key)
        assert raw.startswith(b"repro-answers 1\n")
        _assert_bit_identical(_load_raw(raw), _strip_answers(release.to_dict())[1])

    def test_unsupported_dtypes_are_refused_on_write(self):
        with pytest.raises(TypeError):
            _answers_bytes({"x": np.zeros(2, dtype=np.float32)})


def _swap(old, new):
    return lambda raw: raw.replace(old, new, 1)


CORRUPTIONS = {
    "wrong-magic": _swap(b"repro-answers", b"repro-answerz"),
    "wrong-version": _swap(b"repro-answers 1", b"repro-answers 2"),
    "truncated-index": lambda raw: raw[: raw.index(b"]]") + 1],
    "unreadable-index": _swap(b'[["', b'[{"'),
    "index-not-a-list": lambda raw: b"repro-answers 1\n{}\n",
    "malformed-entry": _swap(b'"<f8", ', b""),
    "negative-length": lambda raw: b"repro-answers 1\n" + b'[["a", "<f8", -1]]\n',
    "boolean-length": lambda raw: b"repro-answers 1\n" + b'[["a", "<f8", true]]\n' + bytes(8),
    "duplicate-name": lambda raw: b"repro-answers 1\n" + b'[["a", "<f8", 0], ["a", "<f8", 0]]\n',
    "truncated-body": lambda raw: raw[:-1],
    "trailing-bytes": lambda raw: raw + b"\x00",
    "unknown-dtype": _swap(b'"<f8"', b'"<f4"'),
    "empty": lambda raw: b"",
    "neither-format": lambda raw: b"not an answers payload",
}


class TestAnswersContainerCorruption:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_every_corrupt_form_is_an_integrity_error(self, store, release, corruption):
        key = store.save(release)
        raw = store.backend.get_answers(key)
        corrupt = CORRUPTIONS[corruption](raw)
        assert corrupt != raw
        store.backend.put(key, store.backend.get_document(key), corrupt)
        with pytest.raises(ReleaseIntegrityError):
            store.load(key)

    def test_a_length_that_disagrees_with_the_labels_is_an_integrity_error(self, store, release):
        key = store.save(release)
        arrays = _strip_answers(release.to_dict())[1]
        name = next(iter(arrays))
        arrays[name] = np.append(arrays[name], 1.0)
        store.backend.put(key, store.backend.get_document(key), _answers_bytes(arrays))
        with pytest.raises(ReleaseIntegrityError, match="length mismatch"):
            store.load(key)


class _ForbiddenLock:
    def __enter__(self):
        raise AssertionError("the npz parse lock was taken")

    def __exit__(self, *exc):
        return False


class TestConcurrentContainerLoads:
    def test_threaded_loads_never_take_the_npz_lock(self, store, release, monkeypatch):
        key = store.save(release)
        legacy = io.BytesIO()
        np.savez(legacy, **_strip_answers(release.to_dict())[1])
        store.backend.put("legacy", store.backend.get_document(key), legacy.getvalue())
        monkeypatch.setattr(store_module, "_NPZ_PARSE_LOCK", _ForbiddenLock())
        with pytest.raises(AssertionError, match="npz parse lock"):
            store.load("legacy")  # the guard is live for npz payloads

        expected = release.to_dict()
        failures = []
        start = threading.Barrier(8)

        def reader():
            start.wait()
            try:
                for _ in range(10):
                    assert store.load(key).to_dict() == expected
            except Exception as error:  # pragma: no cover - the regression
                failures.append(error)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
