"""Tests for the store-backend abstraction: the backend contract over every
backend kind, the in-memory backend, the one-shot directory-store import,
and the LRU read-through cache with integrity re-checks."""

import pytest

from backend_matrix import make_release_store, store_backend_matrix
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import ReleaseStore, import_directory_store
from repro.exceptions import ReleaseIntegrityError, ValidationError
from repro.grouping.specialization import SpecializationConfig


@pytest.fixture(scope="module")
def release(dblp_graph):
    config = DisclosureConfig(
        epsilon_g=0.5, specialization=SpecializationConfig(num_levels=4)
    )
    return MultiLevelDiscloser(config, rng=11).disclose(dblp_graph)


@pytest.fixture
def store(tmp_path):
    return ReleaseStore(tmp_path / "releases.db")


class TestKeys:
    def test_dot_keys_are_neutralised(self, store, release):
        """'.'/'..' keys are neutralised by slugification — a caller-supplied
        key always lands on an ordinary, digest-suffixed slug."""
        store.save(release, key="alpha")
        assert not store.exists("..")
        assert not store.exists(".")
        with pytest.raises(ReleaseIntegrityError):
            store.load("..")
        slug = store.save(release, key="..")
        assert slug.startswith("release-")
        assert store.keys() == ["alpha", slug]


class TestBackendContract:
    """The seven-method StoreBackend contract, run over every backend kind.

    One parameterized suite instead of per-backend copies: the same
    assertions must hold for every backend.
    """

    @pytest.fixture(params=store_backend_matrix())
    def any_store(self, request, tmp_path):
        return make_release_store(request.param, tmp_path, cache_size=4)

    def test_round_trip_is_lossless(self, any_store, release):
        key = any_store.save(release)
        assert any_store.load(key).to_dict() == release.to_dict()

    def test_keys_exists_delete(self, any_store, release):
        any_store.save(release, key="beta")
        any_store.save(release, key="alpha")
        assert any_store.keys() == ["alpha", "beta"]
        assert any_store.exists("alpha")
        any_store.delete("alpha")
        assert not any_store.exists("alpha")
        assert any_store.keys() == ["beta"]
        any_store.delete("alpha")  # idempotent

    def test_fingerprint_absent_is_none(self, any_store):
        assert any_store.fingerprint("nope") is None

    def test_fingerprint_changes_on_republish(self, any_store, release):
        key = any_store.save(release, key="run")
        before = any_store.fingerprint(key)
        assert before is not None
        any_store.save(release, key="run")
        assert any_store.fingerprint(key) != before

    def test_fingerprint_never_reused_across_delete_and_reput(
        self, any_store, release
    ):
        """delete + re-put must yield a fresh token — a reused one would
        let the LRU/response caches serve the old entry for the new bytes."""
        key = any_store.save(release, key="run")
        first = any_store.fingerprint(key)
        any_store.delete(key)
        any_store.save(release, key="run")
        assert any_store.fingerprint(key) != first

    def test_cache_invalidated_by_republish(self, any_store, release):
        key = any_store.save(release, key="run")
        first = any_store.load(key)
        any_store.save(release, key="run")
        second = any_store.load(key)
        assert second is not first  # re-read, not served stale
        assert second.to_dict() == first.to_dict()

    def test_document_bytes_identical_across_backends(
        self, any_store, release, tmp_path
    ):
        reference = ReleaseStore(tmp_path / "reference-store.db")
        key = reference.save(release, key="same")
        any_store.save(release, key="same")
        assert any_store.backend.get_document(key) == reference.backend.get_document(
            key
        )

    def test_missing_key_raises_integrity_error(self, any_store):
        with pytest.raises(ReleaseIntegrityError):
            any_store.load("nope")

    def test_cache_info_adds_up(self, any_store, release):
        """The LRU audit invariant: hits + misses == lookups through a mix
        of cold loads, warm hits and an invalidating republish."""
        key = any_store.save(release, key="run")
        any_store.load(key)  # miss
        any_store.load(key)  # hit
        any_store.save(release, key="run")
        any_store.load(key)  # miss (fresh fingerprint)
        any_store.load(key)  # hit
        info = any_store.cache_info()
        assert info["hits"] + info["misses"] == info["lookups"]
        assert info["lookups"] == 4
        assert (info["hits"], info["misses"]) == (2, 2)


class TestDocumentOnlyLoad:
    def test_load_document_never_reads_answer_arrays(self, store, release, monkeypatch):
        key = store.save(release)

        def forbidden(key):
            raise AssertionError("load_document read the answer arrays")

        monkeypatch.setattr(store.backend, "get_answers", forbidden)
        document = store.load_document(key)
        assert set(document["levels"]) == {str(level) for level in release.levels()}
        for level_doc in document["levels"].values():
            for ref in level_doc["answers"].values():
                assert set(ref) == {"labels", "npz_key"}  # still npz references

    def test_load_document_missing_key_raises(self, store):
        with pytest.raises(ReleaseIntegrityError):
            store.load_document("nope")

    def test_load_level_wraps_corrupt_document(self, store, release):
        key = store.save_level(release.level(release.levels()[0]), key="view")
        store.backend.put(key, b"{broken", store.backend.get_answers(key))
        with pytest.raises(ReleaseIntegrityError):
            store.load_level(key)


class TestMemoryBackend:
    def test_round_trip_is_lossless(self, release):
        store = ReleaseStore.in_memory()
        key = store.save(release)
        assert store.load(key).to_dict() == release.to_dict()

    def test_keys_exists_delete(self, release):
        store = ReleaseStore.in_memory()
        store.save(release, key="beta")
        store.save(release, key="alpha")
        assert store.keys() == ["alpha", "beta"]
        assert store.exists("alpha")
        store.delete("alpha")
        assert not store.exists("alpha")
        assert store.keys() == ["beta"]

    def test_missing_key_raises_integrity_error(self):
        store = ReleaseStore.in_memory()
        with pytest.raises(ReleaseIntegrityError):
            store.load("nope")

    def test_get_or_create_resumes(self, release):
        store = ReleaseStore.in_memory()
        first, created_first = store.get_or_create("run", lambda: release)
        second, created_second = store.get_or_create("run", lambda: release)
        assert (created_first, created_second) == (True, False)
        assert second.to_dict() == first.to_dict()

    def test_level_view_round_trip(self, release):
        store = ReleaseStore.in_memory()
        view = release.level(release.levels()[0])
        store.save_level(view, key="owner-view")
        assert store.load_level("owner-view").to_dict() == view.to_dict()

    def test_document_bytes_identical_to_sqlite_backend(self, release, tmp_path):
        """Both backends persist the canonical serialisation, so the stored
        document bytes — and anything derived from them — are byte-equal."""
        sqlite_store = ReleaseStore(tmp_path / "store.db")
        memory_store = ReleaseStore.in_memory()
        key = sqlite_store.save(release, key="same")
        memory_store.save(release, key="same")
        assert (
            sqlite_store.backend.get_document(key)
            == memory_store.backend.get_document(key)
        )


class TestImportDirectoryStore:
    """The one-shot reader for stores the former directory backend wrote:
    ``<key>/release.json`` + ``<key>/answers.npz`` per release."""

    @staticmethod
    def _write_legacy(root, key, document, answers):
        (root / key).mkdir(parents=True)
        (root / key / "release.json").write_bytes(document)
        (root / key / "answers.npz").write_bytes(answers)

    def test_pairs_are_copied_byte_for_byte(self, tmp_path, release):
        source = ReleaseStore.in_memory()
        source.save(release, key="alpha")
        source.save_level(release.level(release.levels()[0]), key="view")
        legacy = tmp_path / "legacy"
        for key in source.keys():
            self._write_legacy(
                legacy, key, source.backend.get_document(key), source.backend.get_answers(key)
            )
        target = ReleaseStore(tmp_path / "releases.db")
        assert import_directory_store(legacy, target) == ["alpha", "view"]
        for key in ("alpha", "view"):
            assert target.backend.get_document(key) == source.backend.get_document(key)
            assert target.backend.get_answers(key) == source.backend.get_answers(key)
        assert target.load("alpha").to_dict() == release.to_dict()

    def test_incomplete_pairs_and_stray_files_are_skipped(self, tmp_path):
        legacy = tmp_path / "legacy"
        self._write_legacy(legacy, "whole", b"{}", b"npz")
        (legacy / "torn").mkdir()
        (legacy / "torn" / "release.json").write_bytes(b"{}")
        (legacy / "index.json").write_text('{"version": 1, "keys": ["whole"]}')
        target = ReleaseStore.in_memory()
        assert import_directory_store(legacy, target) == ["whole"]
        assert target.keys() == ["whole"]

    def test_rerun_keeps_what_the_store_already_holds(self, tmp_path):
        legacy = tmp_path / "legacy"
        self._write_legacy(legacy, "alpha", b"{}", b"old")
        target = ReleaseStore.in_memory()
        target.backend.put("alpha", b"{}", b"new")
        assert import_directory_store(legacy, target) == []
        assert target.backend.get_answers("alpha") == b"new"

    def test_missing_directory_is_refused(self, tmp_path):
        with pytest.raises(ValidationError):
            import_directory_store(tmp_path / "absent", ReleaseStore.in_memory())


class TestReadThroughCache:
    def _counted(self, store, monkeypatch):
        calls = []
        original = store.backend.get_document

        def counting(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(store.backend, "get_document", counting)
        return calls

    def test_cache_disabled_by_default(self, tmp_path, release, monkeypatch):
        store = ReleaseStore(tmp_path / "store.db")
        key = store.save(release)
        calls = self._counted(store, monkeypatch)
        store.load(key)
        store.load(key)
        assert len(calls) == 2

    def test_hot_release_served_from_memory(self, tmp_path, release, monkeypatch):
        store = ReleaseStore(tmp_path / "store.db", cache_size=4)
        key = store.save(release)
        calls = self._counted(store, monkeypatch)
        first = store.load(key)
        second = store.load(key)
        assert len(calls) == 1
        assert second is first  # served from memory, not re-parsed
        info = store.cache_info()
        assert (info["hits"], info["misses"]) == (1, 1)

    def test_integrity_recheck_detects_rewrite(self, tmp_path, release, monkeypatch):
        """A release rewritten behind the store is re-read, never served stale."""
        store = ReleaseStore(tmp_path / "store.db", cache_size=4)
        key = store.save(release)
        document, answers = store.backend.get_document(key), store.backend.get_answers(key)
        calls = self._counted(store, monkeypatch)
        store.load(key)
        store.backend.put(key, document, answers)  # same bytes, new fingerprint
        store.load(key)
        assert len(calls) == 2

    def test_integrity_recheck_detects_corruption(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store.db", cache_size=4)
        key = store.save(release)
        store.load(key)
        store.backend.put(key, b"{broken", store.backend.get_answers(key))
        with pytest.raises(ReleaseIntegrityError):
            store.load(key)

    def test_save_invalidates_cached_entry(self, tmp_path, release, monkeypatch):
        store = ReleaseStore(tmp_path / "store.db", cache_size=4)
        key = store.save(release, key="run")
        store.load(key)
        store.save(release, key="run")
        calls = self._counted(store, monkeypatch)
        store.load(key)
        assert len(calls) == 1

    def test_delete_invalidates_cached_entry(self, tmp_path, release):
        store = ReleaseStore(tmp_path / "store.db", cache_size=4)
        key = store.save(release)
        store.load(key)
        store.delete(key)
        with pytest.raises(ReleaseIntegrityError):
            store.load(key)

    def test_lru_eviction(self, tmp_path, release, monkeypatch):
        store = ReleaseStore(tmp_path / "store.db", cache_size=1)
        key_a = store.save(release, key="a")
        key_b = store.save(release, key="b")
        calls = self._counted(store, monkeypatch)
        store.load(key_a)
        store.load(key_b)  # evicts a
        store.load(key_a)  # miss again
        assert calls == ["a", "b", "a"]
        assert store.cache_info()["size"] == 1

    def test_memory_backend_cache_invalidated_by_put(self, release):
        store = ReleaseStore.in_memory(cache_size=4)
        key = store.save(release, key="run")
        first = store.load(key)
        store.save(release, key="run")  # bumps the backend revision
        second = store.load(key)
        assert second is not first
        assert second.to_dict() == first.to_dict()
