"""Canonical JSON cost: the reference ``json`` one-liner vs ``canonical_json_bytes``.

:func:`~repro.utils.serialization.canonical_json_bytes` must produce exactly
the bytes of ``(json.dumps(to_jsonable(obj), indent=2, sort_keys=True) +
"\\n").encode()`` (stored fingerprints, the catalog ``graph`` column and
served ETags are digests of them), but without ``json``'s pure-Python
encoder.  This benchmark times both on three payloads every save or request
encodes:

* **document** — the stored document of a 1,000-author paper-default
  release (what :meth:`ReleaseStore.save` encodes);
* **fingerprint_level** — one :func:`~repro.core.common.fingerprint_level`
  payload (a refresh encodes one per level);
* **served_view** — the body of one served role view.

Each round times a batch of calls of each encoder, alternating which runs
first, in process CPU time; the table reports per-call quartiles over the
rounds and the ratio of the medians.  Repeated calls reuse the encoder's
cached dict layouts, as successive saves of one store do.  It checks byte equality first and
asserts the document encodes at least 3x faster.  Results go to
``benchmarks/results/serialization.json`` / ``serialization.txt``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, Dict

import pytest

from benchmarks.conftest import BENCH_SEED, save_text
from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import _strip_answers
from repro.datasets.dblp_like import generate_dblp_like
from repro.utils.serialization import canonical_json_bytes, to_jsonable

pytestmark = pytest.mark.slow

ROUNDS = 15
#: Calls per timed batch, per payload (a batch takes a few milliseconds).
BATCH = {"document": 40, "fingerprint_level": 1000, "served_view": 400}
MIN_DOCUMENT_SPEEDUP = 3.0


def reference_bytes(obj) -> bytes:
    """The frozen definition of the canonical bytes."""
    return (json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _payloads() -> Dict[str, object]:
    release = MultiLevelDiscloser(
        DisclosureConfig.paper_defaults(epsilon_g=0.5), rng=BENCH_SEED
    ).disclose(generate_dblp_like(num_authors=1000, seed=BENCH_SEED))
    document, _ = _strip_answers(release.to_dict())  # exactly what a save encodes
    levels = release.levels()
    level = release.level(levels[0])
    policy = AccessPolicy({"analyst": levels[0], "public": levels[-1]}, top_level=levels[-1] + 1)
    return {
        "document": document,
        "fingerprint_level": {
            "epsilon": float(level.guarantee.epsilon),
            "sensitivity": float(level.sensitivity),
            "mechanism": str(level.mechanism),
            "delta": level.guarantee.delta,
            "partition": release.provenance["level_fingerprints"][str(levels[0])],
            "answers": release.provenance["level_fingerprints"][str(levels[-1])],
        },
        "served_view": {
            "key": "bench",
            "role": "public",
            "information_level": policy.information_level("public").name,
            "dataset": release.dataset_name,
            "release": policy.view_for("public", release).to_dict(),
        },
    }


def _batch_us(encode: Callable[[object], bytes], payload, calls: int) -> float:
    start = time.process_time()
    for _ in range(calls):
        encode(payload)
    return (time.process_time() - start) / calls * 1e6


def _quartiles(samples) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"q1": round(q1, 2), "median": round(median, 2), "q3": round(q3, 2)}


class TestSerializationBench:
    def test_canonical_json_vs_reference(self, results_dir):
        table = {}
        for name, payload in _payloads().items():
            encoded = canonical_json_bytes(payload)
            assert encoded == reference_bytes(payload)  # parity before performance
            samples = {"reference": [], "canonical": []}
            encoders = [("reference", reference_bytes), ("canonical", canonical_json_bytes)]
            for round_index in range(ROUNDS):
                for label, encode in encoders[:: 1 if round_index % 2 else -1]:
                    samples[label].append(_batch_us(encode, payload, BATCH[name]))
            reference = _quartiles(samples["reference"])
            canonical = _quartiles(samples["canonical"])
            table[name] = {
                "bytes": len(encoded),
                "reference_us": reference,
                "canonical_us": canonical,
                "speedup": round(reference["median"] / canonical["median"], 2),
            }

        assert table["document"]["speedup"] >= MIN_DOCUMENT_SPEEDUP, table["document"]

        result = {"nproc": os.cpu_count(), "rounds": ROUNDS, "timer": "process_time", "payloads": table}
        (results_dir / "serialization.json").write_text(
            json.dumps(result, indent=2) + "\n", encoding="utf-8"
        )
        lines = [
            f"nproc={result['nproc']}  rounds={ROUNDS}  per-call CPU us, median [q1, q3]",
            "payload              bytes  reference                      canonical                      speedup",
        ]
        for name, row in table.items():
            ref, can = row["reference_us"], row["canonical_us"]
            lines.append(
                f"{name:<18} {row['bytes']:>6}  {ref['median']:>8} [{ref['q1']:>8}, {ref['q3']:>8}]"
                f"  {can['median']:>8} [{can['q1']:>8}, {can['q3']:>8}]  {row['speedup']:>5}x"
            )
        save_text(results_dir / "serialization.txt", "\n".join(lines))
