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

* ``run_figure1_trials(config=Figure1Config(), executor="process")`` fans
  independent full-pipeline trials out across cores (a single disclosure
  runs in-process; ``"serial"``/``"thread"``/``"process"`` trials are
  bit-identical for the same seed);
* :class:`repro.ReleaseStore` persists the release (JSON + raw answers) so it can
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
from repro.evaluation.figure1 import Figure1Config, run_figure1_trials
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

    # Parallel trials: each Figure-1 trial re-runs the whole pipeline from
    # streams derived from (seed, trial index), so executor="process" fans
    # the trials out across cores.  Same seed, same bits — the process run
    # matches the serial one exactly, only the wall clock changes.
    trials = Figure1Config(num_levels=4, num_trials=4, seed=42)
    serial_trials = run_figure1_trials(graph=graph, config=trials)
    parallel_trials = run_figure1_trials(graph=graph, config=trials, executor="process")
    print()
    print(
        f"Process-parallel Figure-1 trials, {parallel_trials.information_level_name(0)} "
        f"mean RER at eps_g=1.0: "
        f"{100 * parallel_trials.rer_at(0, 1.0):.3f}% "
        f"(identical to serial: {parallel_trials.series == serial_trials.series})"
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
