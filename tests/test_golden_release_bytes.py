"""Golden regression test for stored bytes and content fingerprints.

``tests/golden/release_bytes.json`` pins what a stored release looks like
on disk and on the wire, for the 120-author gaussian release of
:mod:`tests.test_golden_releases` (seed 31, ε_g = 0.8, 5 levels):

* the SHA-256 of its stored document (``backend.get_document``);
* its version-2 ``level_fingerprints``;
* :func:`~repro.core.common.fingerprint_answers` of its true answers;
* its catalog ``graph_fingerprint`` column;
* the body SHA-256 and ``ETag`` of one served role view.

A refresh reuses a stored level only when its recomputed fingerprint equals
the stored one, so any drift in the canonical JSON bytes behind these
digests would silently turn the next refresh of every stored release into a
full re-perturb (and a full re-spend of ε).  These values must not move.

Regenerate (only when a change is *meant* to move stored bytes, and say
which entry moved and why) with::

    PYTHONPATH=src python tests/test_golden_release_bytes.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from repro.core.access import AccessPolicy
from repro.core.catalog import ReleaseFilter
from repro.core.common import fingerprint_answers, normalise_workload
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import ReleaseStore
from repro.datasets.dblp_like import generate_dblp_like
from repro.grouping.specialization import SpecializationConfig
from repro.serving import ReleaseServer, http_get_response

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "release_bytes.json"

KEY = "golden"
ROLE = "partner"


def golden_release():
    """The pinned release and the graph it discloses."""
    config = DisclosureConfig(
        epsilon_g=0.8,
        mechanism="gaussian",
        specialization=SpecializationConfig(num_levels=5),
    )
    graph = generate_dblp_like(num_authors=120, seed=9)
    return MultiLevelDiscloser(config=config, rng=31).disclose(graph), graph


def compute_golden(workdir: Path) -> dict:
    """Every pinned value, in the JSON file's layout."""
    release, graph = golden_release()
    true_answers = normalise_workload(None).evaluate_batch(graph)

    store = ReleaseStore(workdir / "store.db")
    store.save(release, key=KEY)
    document = store.backend.get_document(KEY)
    (catalog_row,) = store.backend.query_catalog(ReleaseFilter())
    policy = AccessPolicy({"analyst": 0, ROLE: 1, "public": 2}, top_level=4)
    with ReleaseServer(store, policy, port=0) as server:
        view = http_get_response(f"{server.url}/releases/{KEY}/views/{ROLE}")
    return {
        "document_sha256": hashlib.sha256(document).hexdigest(),
        "level_fingerprints": release.provenance["level_fingerprints"],
        "fingerprint_version": release.provenance["fingerprint_version"],
        "answers_fingerprint": fingerprint_answers(true_answers),
        "catalog_graph_fingerprint": catalog_row["graph"],
        "view": {
            "route": f"/releases/{KEY}/views/{ROLE}",
            "status": view.status,
            "body_sha256": hashlib.sha256(view.body).hexdigest(),
            "etag": view.etag,
        },
    }


def test_stored_bytes_and_fingerprints_match_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert compute_golden(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        values = compute_golden(Path(workdir))
    GOLDEN_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
