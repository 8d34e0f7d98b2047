"""Golden regression test for the legacy npz answers read path.

Stores written before the raw answers container kept each release's
answers as ``np.savez`` bytes.  ``tests/golden/release_bytes_answers.npz``
holds those bytes for the release pinned by
:mod:`tests.test_golden_release_bytes`, exactly as such a store wrote them.
Stored next to that release's document (whose SHA-256 the golden pins),
they must still load to the same release and serve the same view body and
``ETag``, whether the pair sits in a SQLite row or arrives through
:func:`~repro.core.store.import_directory_store`.

Regenerate (only if the pinned release itself moves) with::

    PYTHONPATH=src python tests/test_golden_legacy_answers.py

which writes ``np.savez`` of the release's answer arrays.  The zip entries
carry a timestamp, so the bytes differ from run to run; the values do not.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from repro.core.access import AccessPolicy
from repro.core.store import ReleaseStore, _strip_answers, import_directory_store
from repro.serving import ReleaseServer, http_get_response
from tests.test_golden_release_bytes import GOLDEN_PATH, KEY, ROLE, golden_release

LEGACY_ANSWERS = Path(__file__).resolve().parent / "golden" / "release_bytes_answers.npz"


def _serve_view(store: ReleaseStore) -> dict:
    policy = AccessPolicy({"analyst": 0, ROLE: 1, "public": 2}, top_level=4)
    with ReleaseServer(store, policy, port=0) as server:
        view = http_get_response(f"{server.url}/releases/{KEY}/views/{ROLE}")
    return {
        "route": f"/releases/{KEY}/views/{ROLE}",
        "status": view.status,
        "body_sha256": hashlib.sha256(view.body).hexdigest(),
        "etag": view.etag,
    }


def _golden_document(workdir: Path):
    """The golden release and its stored document, checked against its pin."""
    release, _ = golden_release()
    store = ReleaseStore(workdir / "current.db")
    store.save(release, key=KEY)
    document = store.backend.get_document(KEY)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert hashlib.sha256(document).hexdigest() == golden["document_sha256"]
    return release, document


def test_legacy_npz_answers_load_and_serve_the_golden_view(tmp_path):
    legacy = LEGACY_ANSWERS.read_bytes()
    assert legacy[:2] == b"PK"  # a zip, as np.savez writes it
    release, document = _golden_document(tmp_path)
    store = ReleaseStore(tmp_path / "store.db")
    store.backend.put(KEY, document, legacy)
    assert store.load(KEY).to_dict() == release.to_dict()
    assert _serve_view(store) == json.loads(GOLDEN_PATH.read_text())["view"]


def test_imported_directory_pair_serves_the_golden_view(tmp_path):
    directory = tmp_path / "legacy" / KEY
    directory.mkdir(parents=True)
    (directory / "release.json").write_bytes(_golden_document(tmp_path)[1])
    (directory / "answers.npz").write_bytes(LEGACY_ANSWERS.read_bytes())
    store = ReleaseStore(tmp_path / "imported.db")
    assert import_directory_store(tmp_path / "legacy", store) == [KEY]
    assert store.backend.get_answers(KEY) == LEGACY_ANSWERS.read_bytes()
    assert _serve_view(store) == json.loads(GOLDEN_PATH.read_text())["view"]


if __name__ == "__main__":
    _, arrays = _strip_answers(golden_release()[0].to_dict())
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    LEGACY_ANSWERS.write_bytes(buffer.getvalue())
