#!/usr/bin/env python
"""Quickstart: disclose a DBLP-like association graph with group privacy.

Runs the paper's two-phase pipeline end to end on a small synthetic
author-paper graph and prints, for every information level ``I_{9,i}``:

* the noisy association count released at that level,
* the noise scale and group-level sensitivity it was calibrated to,
* the relative error against the (normally hidden) true count, and
* the privacy certificate of the whole release.

The pipeline has one execution path: the graph is compiled once into
array form, and whole workloads, group sensitivities and split scores are
answered with batched NumPy kernels.  The example also shows the batched
query API, ``QueryWorkload.evaluate_batch``, which answers several queries
from one compiled view.

Two orchestration features of the staged pipeline are demonstrated at the
end:

* ``DisclosureConfig(executor="process")`` fans the independent per-level
  perturbations out across cores (``"serial"``/``"thread"``/``"process"``
  all produce bit-identical releases for the same seed);
* :class:`repro.ReleaseStore` persists the release (JSON + npz) so it can
  be served — or re-reported with ``repro report`` — without re-spending
  privacy budget on a fresh disclosure.

Run with ``python examples/quickstart.py [num_authors]``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import (
    DisclosureConfig,
    DegreeHistogramQuery,
    MultiLevelDiscloser,
    QueryWorkload,
    ReleaseStore,
    TotalAssociationCountQuery,
    generate_dblp_like,
    verify_release,
)
from repro.evaluation.metrics import relative_error_rate
from repro.evaluation.reporting import format_table


def main(num_authors: int = 2_000) -> None:
    graph = generate_dblp_like(num_authors=num_authors, seed=7)
    print(f"Generated {graph!r}")

    config = DisclosureConfig.paper_defaults(epsilon_g=0.999)
    discloser = MultiLevelDiscloser(config=config, rng=42)
    release = discloser.disclose(graph)

    true_count = graph.num_associations()
    rows = []
    for level in release.levels():
        level_release = release.level(level)
        noisy = level_release.scalar_answer("total_association_count")
        rows.append(
            {
                "information_level": f"I9,{level}",
                "groups": level_release.guarantee.num_groups,
                "sensitivity": level_release.sensitivity,
                "noise_scale": level_release.noise_scale,
                "noisy_count": round(noisy, 1),
                "RER": f"{100 * relative_error_rate(noisy, true_count):.3f}%",
            }
        )
    print()
    print(f"True association count (kept by the publisher): {true_count}")
    print(format_table(rows))

    print()
    certificate = verify_release(release)
    print("\n".join(certificate.summary_lines()))

    # Batched query evaluation: one compiled array view answers the whole
    # workload (here the true, un-noised values a publisher would keep).
    workload = QueryWorkload([TotalAssociationCountQuery(), DegreeHistogramQuery(max_degree=10)])
    answers = workload.evaluate_batch(graph)
    histogram = answers["degree_histogram"]
    print()
    print(
        f"Batched workload over {graph.arrays()!r}: total="
        f"{answers['total_association_count'].scalar():.0f}, "
        f"histogram bins={histogram.values.size}"
    )

    # Parallel disclosure: the per-level perturbations are independent, so
    # executor="process" fans them out across cores.  Same seed, same bits —
    # the release matches the serial one above exactly (compare the noisy
    # counts), only the wall clock changes.
    parallel_config = DisclosureConfig.paper_defaults(epsilon_g=0.999)
    parallel_config.executor = "process"
    parallel_release = MultiLevelDiscloser(config=parallel_config, rng=42).disclose(graph)
    level0 = release.level(0).scalar_answer("total_association_count")
    parallel_level0 = parallel_release.level(0).scalar_answer("total_association_count")
    print()
    print(
        f"Process-parallel disclosure, level 0 noisy count: {parallel_level0:.1f} "
        f"(serial run produced {level0:.1f}; identical={parallel_level0 == level0})"
    )

    # Persist the release: the budget is spent either way, so keep the
    # artefact and serve it instead of re-disclosing.  The round-trip is
    # lossless down to the last bit.
    store = ReleaseStore(Path(tempfile.mkdtemp(prefix="repro-releases-")) / "releases.db")
    key = store.save(release)
    restored = store.load(key)
    print(
        f"Persisted release under key {key!r} "
        f"(lossless round-trip: {restored.to_dict() == release.to_dict()}); "
        f"re-render metrics any time with: repro report --store {store.root} --key {key}"
    )


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    main(size)
