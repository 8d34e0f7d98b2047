"""Serialization cost of a save: canonical JSON, and the answers container vs npz.

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
asserts the document encodes at least 3x faster.

A second test times the *answers* payload of a refresh release (a
1,000-author paper-default release refreshed after a 50-edge insert): the
``np.savez``/``np.load`` pair that stores used to write against the raw
container of :func:`~repro.core.store._answers_bytes` and
:func:`~repro.core.store._parse_answers`, per call, encode and decode.  It
checks both decode to the same bits first and asserts the container
encodes at least 10x faster.  Results go to
``benchmarks/results/serialization.json`` / ``serialization.txt``, one
section per test.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, save_text
from repro.core.access import AccessPolicy
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.store import _answers_bytes, _parse_answers, _strip_answers
from repro.datasets.dblp_like import generate_dblp_like
from repro.utils.serialization import canonical_json_bytes, to_jsonable

pytestmark = pytest.mark.slow

ROUNDS = 15
#: Calls per timed batch, per payload (a batch takes a few milliseconds).
BATCH = {"document": 40, "fingerprint_level": 1000, "served_view": 400}
MIN_DOCUMENT_SPEEDUP = 3.0
#: Calls per timed batch of the answers payload, per format.
ANSWERS_BATCH = {"npz": 200, "container": 4000}
MIN_ANSWERS_ENCODE_SPEEDUP = 10.0


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


def _refresh_answers() -> Dict[str, np.ndarray]:
    """The answer arrays a save of a refreshed release writes."""
    graph = generate_dblp_like(num_authors=1000, seed=BENCH_SEED)
    discloser = MultiLevelDiscloser(DisclosureConfig.paper_defaults(epsilon_g=0.5), rng=BENCH_SEED)
    hierarchy = discloser.build_hierarchy(graph)
    base = discloser.disclose(graph, hierarchy=hierarchy)
    rng = np.random.default_rng(BENCH_SEED)
    left, right = sorted(graph.left_nodes(), key=str), sorted(graph.right_nodes(), key=str)
    inserted = 0
    while inserted < 50:
        pair = (left[rng.integers(len(left))], right[rng.integers(len(right))])
        inserted += graph.add_association(*pair)
    release = discloser.refresh(base, graph, hierarchy=hierarchy).release
    return _strip_answers(release.to_dict())[1]


def _npz_encode(arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _npz_decode(raw: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(raw)) as npz:
        return {name: npz[name] for name in npz.files}


def _write_section(results_dir: Path, section: str, value) -> None:
    """Merge one test's section into ``serialization.json`` and re-render the table."""
    path = results_dir / "serialization.json"
    result = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    result.update({"nproc": os.cpu_count(), "rounds": ROUNDS, "timer": "process_time", section: value})
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    lines = [f"nproc={result['nproc']}  rounds={ROUNDS}  per-call CPU us, median [q1, q3]"]

    def cell(q):
        return f"{q['median']:>8} [{q['q1']:>8}, {q['q3']:>8}]"

    if "payloads" in result:
        lines.append(
            "payload              bytes  reference                      canonical                      speedup"
        )
        for name, row in result["payloads"].items():
            lines.append(
                f"{name:<18} {row['bytes']:>6}  {cell(row['reference_us'])}"
                f"  {cell(row['canonical_us'])}  {row['speedup']:>5}x"
            )
    if "answers" in result:
        answers = result["answers"]
        lines.append(
            f"refresh answers ({answers['arrays']} arrays)  "
            f"bytes npz={answers['bytes']['npz']} container={answers['bytes']['container']}"
        )
        lines.append("step     npz                            container                      speedup")
        for step in ("encode", "decode"):
            row = answers[step]
            lines.append(f"{step:<8} {cell(row['npz_us'])}  {cell(row['container_us'])}  {row['speedup']:>5}x")
    save_text(results_dir / "serialization.txt", "\n".join(lines))


def _batch_us(work: Callable[[object], object], payload, calls: int) -> float:
    start = time.process_time()
    for _ in range(calls):
        work(payload)
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

        _write_section(results_dir, "payloads", table)

    def test_answers_container_vs_npz(self, results_dir):
        arrays = _refresh_answers()
        encoded = {"npz": _npz_encode(arrays), "container": _answers_bytes(arrays)}
        formats = {
            "npz": (_npz_encode, _npz_decode),
            "container": (_answers_bytes, _parse_answers),
        }
        for label, (_, decode) in formats.items():  # parity before performance
            decoded = decode(encoded[label])
            assert list(decoded) == list(arrays), label
            for name, values in arrays.items():
                assert decoded[name].dtype == values.dtype, (label, name)
                assert decoded[name].tobytes() == values.tobytes(), (label, name)

        samples = {(step, label): [] for step in ("encode", "decode") for label in formats}
        order = list(formats.items())
        for round_index in range(ROUNDS):
            for label, (encode, decode) in order[:: 1 if round_index % 2 else -1]:
                calls = ANSWERS_BATCH[label]
                samples["encode", label].append(_batch_us(encode, arrays, calls))
                samples["decode", label].append(_batch_us(decode, encoded[label], calls))
        section = {
            "arrays": len(arrays),
            "bytes": {label: len(raw) for label, raw in encoded.items()},
        }
        for step in ("encode", "decode"):
            npz, container = _quartiles(samples[step, "npz"]), _quartiles(samples[step, "container"])
            section[step] = {
                "npz_us": npz,
                "container_us": container,
                "speedup": round(npz["median"] / container["median"], 2),
            }

        assert section["encode"]["speedup"] >= MIN_ANSWERS_ENCODE_SPEEDUP, section["encode"]
        _write_section(results_dir, "answers", section)
