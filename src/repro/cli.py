"""Command-line interface.

Eight subcommands cover the common publisher workflows without writing any
Python:

* ``repro generate`` — build a synthetic dataset and write it as an edge list;
* ``repro disclose`` — run the full multi-level group-private disclosure of a
  graph (synthetic or loaded from an edge list) and write the release JSON
  and/or persist it into a :class:`~repro.core.store.ReleaseStore`;
* ``repro figure1``  — regenerate the paper's Figure 1 table on a synthetic
  graph and print / save it (``--per-trial`` runs the full-pipeline
  Monte-Carlo, parallelisable with ``--executor process``);
* ``repro report``   — re-render Figure-1-style per-level metrics from a
  release persisted in a store, without re-disclosing;
* ``repro query``    — filter a store's release catalog by mechanism,
  epsilon, graph fingerprint, key glob or created-at lower bound, rendered
  as a table, CSV or canonical JSON, answered by an indexed SQL lookup;
* ``repro sweep``    — disclose an ``epsilon-g`` × ``levels`` grid into a
  store with checkpointed resume: ``--journal`` names the run, whose
  event log ``<journal>.events.jsonl`` records each combination's state
  and row so an interrupted sweep resumes instead of re-disclosing,
  ``--on-error`` picks fail-fast or collect-and-continue, ``--progress``
  streams one ``{"event": "sweep-progress", ...}`` JSON line per wave to
  stderr, and ``--workers`` / ``--worker-budget`` size the combination
  fan-out through a :class:`~repro.execution.scheduler.SweepScheduler`;
* ``repro refresh``  — incrementally re-disclose a *mutated* graph against a
  stored release: per-level fingerprints are diffed and only the affected
  levels are re-perturbed (unaffected levels are reused byte-for-byte at
  zero extra privacy spend); the refreshed release is archived under a
  revision-qualified key and republished at the live key, which clears the
  serving layer's staleness verdict (a refresh that changes nothing the
  live key holds saves nothing);
* ``repro serve``    — serve the releases in a store over a read-only HTTP
  API, resolving each caller's role through an
  :class:`~repro.core.access.AccessPolicy` (no disclosure code runs while
  serving, so no budget is ever spent; ``--max-in-flight`` and
  ``--handler-timeout`` bound overload instead of queueing it).

The module exposes :func:`main` (also installed as the ``repro`` console
script) and :func:`build_parser` for testing.  :func:`main` turns expected
operational failures (:class:`~repro.exceptions.ValidationError`,
:class:`~repro.exceptions.ServingError`,
:class:`~repro.exceptions.SweepInterrupted`,
:class:`~repro.exceptions.EvaluationError` — e.g. a journal belonging to a
different run) into a one-line stderr message and a nonzero exit — never a
traceback.  ``Ctrl-C`` gets the same treatment: a one-line message and the
conventional exit status 130 instead of a ``KeyboardInterrupt`` traceback.
"""

from __future__ import annotations

import argparse
import signal
import sys
from functools import partial
from pathlib import Path
from typing import List, Optional

from repro.core.catalog import (
    OUTPUT_FORMATS,
    ReleaseCatalog,
    ReleaseFilter,
    format_rows,
    system_clock,
)
from repro.core.config import DisclosureConfig
from repro.core.discloser import MultiLevelDiscloser
from repro.core.certificate import verify_release
from repro.core.refresh import publish_refresh
from repro.core.store import ReleaseStore
from repro.exceptions import (
    EvaluationError,
    ReleaseIntegrityError,
    ServingError,
    SweepInterrupted,
    ValidationError,
)
from repro.datasets.registry import available_datasets, load_dataset
from repro.evaluation.figure1 import (
    Figure1Config,
    figure1_metrics_from_release,
    run_figure1,
    run_figure1_analytic,
    run_figure1_trials,
)
from repro.evaluation.reporting import format_table
from repro.evaluation.sweep import ParameterSweep
from repro.execution import EXECUTOR_NAMES, SweepScheduler
from repro.graphs.io import read_edge_list, write_edge_list
from repro.grouping.specialization import SpecializationConfig
from repro.utils.serialization import to_json_file

#: CLI spellings of the journal error policies.
_ON_ERROR_CHOICES = {"fail-fast": "fail_fast", "collect": "collect_errors"}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Group differential privacy-preserving disclosure of multi-level association graphs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic association graph")
    generate.add_argument("--dataset", choices=available_datasets(), default="dblp")
    generate.add_argument("--scale", default="small", help="tiny / small / medium / paper")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", type=Path, required=True, help="edge-list file to write")

    disclose = subparsers.add_parser("disclose", help="run the multi-level group-private disclosure")
    disclose.add_argument("--input", type=Path, help="edge-list file (omit to use a synthetic dataset)")
    disclose.add_argument("--dataset", choices=available_datasets(), default="dblp")
    disclose.add_argument("--scale", default="tiny")
    disclose.add_argument("--epsilon-g", type=float, default=1.0, dest="epsilon_g")
    disclose.add_argument("--delta", type=float, default=1e-5)
    disclose.add_argument("--levels", type=int, default=9, help="number of hierarchy levels")
    disclose.add_argument(
        "--mechanism",
        choices=["gaussian", "analytic_gaussian", "laplace", "geometric"],
        default="gaussian",
    )
    disclose.add_argument("--seed", type=int, default=0)
    disclose.add_argument("--output", type=Path, help="release JSON to write")
    disclose.add_argument(
        "--store",
        type=Path,
        help="SQLite release-store file to persist the release into (e.g. releases.db)",
    )
    disclose.add_argument(
        "--key", help="store key for the release (defaults to <dataset>-<content hash>)"
    )

    figure1 = subparsers.add_parser("figure1", help="reproduce the paper's Figure 1 table")
    figure1.add_argument("--scale", default="tiny")
    figure1.add_argument("--levels", type=int, default=9)
    figure1.add_argument("--trials", type=int, default=25)
    figure1.add_argument("--seed", type=int, default=20170605)
    figure1_mode = figure1.add_mutually_exclusive_group()
    figure1_mode.add_argument(
        "--analytic", action="store_true", help="use the closed-form expected RER"
    )
    figure1_mode.add_argument(
        "--per-trial",
        action="store_true",
        help="Monte-Carlo over the full pipeline (fresh specialization per trial)",
    )
    figure1.add_argument(
        "--executor",
        choices=list(EXECUTOR_NAMES),
        default="serial",
        help="executor for the trial fan-out (requires --per-trial)",
    )
    figure1.add_argument("--output", type=Path, help="optional JSON file for the result")

    report = subparsers.add_parser(
        "report", help="re-render per-level metrics from a stored release (no re-disclosure)"
    )
    report.add_argument("--store", type=Path, required=True, help="SQLite release-store file")
    report.add_argument("--key", help="release key (omit to list the stored keys)")
    report.add_argument("--output", type=Path, help="optional JSON file for the metrics rows")

    query = subparsers.add_parser(
        "query", help="filter a store's release catalog (an indexed SQL lookup)"
    )
    query.add_argument(
        "--store", type=Path, required=True, help="SQLite release-store file"
    )
    query.add_argument(
        "--epsilon", type=float, help="exact per-level budget (epsilon-g) filter"
    )
    query.add_argument("--mechanism", help="exact mechanism filter (e.g. gaussian)")
    query.add_argument(
        "--graph", help="exact graph-fingerprint filter (the catalog's 'graph' column)"
    )
    query.add_argument(
        "--key-glob",
        dest="key_glob",
        help="shell-style key pattern (*, ?, [...] classes; case-sensitive)",
    )
    query.add_argument(
        "--since",
        help="ISO-8601 lower bound on created_at; releases stored without a "
        "timestamp never match",
    )
    query.add_argument(
        "--format",
        choices=list(OUTPUT_FORMATS),
        default="table",
        help="table (aligned, human), csv, or json (canonical, machine-diffable)",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="disclose an epsilon-g x levels grid into a store, with checkpointed resume",
    )
    sweep.add_argument(
        "--epsilon-g",
        type=float,
        nargs="+",
        default=[0.1, 0.5, 1.0],
        dest="epsilon_g",
        help="per-level budgets to sweep",
    )
    sweep.add_argument(
        "--levels", type=int, nargs="+", default=[3, 5], help="hierarchy depths to sweep"
    )
    sweep.add_argument("--dataset", choices=available_datasets(), default="dblp")
    sweep.add_argument("--scale", default="tiny")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--store", type=Path, help="SQLite release-store file each combination's release lands in"
    )
    sweep.add_argument(
        "--journal",
        type=Path,
        help="run-journal file (its event log is <journal>.events.jsonl); re-running with "
        "the same journal resumes the sweep instead of re-disclosing completed combinations",
    )
    sweep.add_argument(
        "--on-error",
        choices=sorted(_ON_ERROR_CHOICES),
        default="fail-fast",
        dest="on_error",
        help="stop at the first failed combination, or collect failures and continue",
    )
    sweep.add_argument(
        "--executor",
        choices=list(EXECUTOR_NAMES),
        default="serial",
        help="executor for the combination fan-out",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        dest="task_timeout",
        help="per-combination wall-clock bound in seconds (pool executors only)",
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="stream one structured {\"event\": \"sweep-progress\", ...} JSON line "
        "per wave to stderr",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="workers for the combination fan-out (validated against the "
        "worker budget; pool executors only)",
    )
    sweep.add_argument(
        "--worker-budget",
        type=int,
        default=None,
        dest="worker_budget",
        help="total worker slots --workers must fit in (default: CPU count)",
    )
    sweep.add_argument("--output", type=Path, help="optional JSON file for the result rows")

    refresh = subparsers.add_parser(
        "refresh",
        help="incrementally re-disclose a mutated graph, republishing only affected levels",
    )
    refresh.add_argument(
        "--store", type=Path, required=True, help="release store holding the release"
    )
    refresh.add_argument(
        "--key", required=True, help="store key of the release to refresh (republished in place)"
    )
    refresh.add_argument(
        "--input", type=Path, help="edge-list file of the current graph (omit for a synthetic dataset)"
    )
    refresh.add_argument("--dataset", choices=available_datasets(), default="dblp")
    refresh.add_argument("--scale", default="tiny")
    refresh.add_argument(
        "--seed",
        type=int,
        default=0,
        help="the original disclosure's seed — required for the refreshed release "
        "to be bit-identical to a from-scratch disclosure of the mutated graph",
    )
    refresh.add_argument("--output", type=Path, help="optional JSON file for the refreshed release")

    serve = subparsers.add_parser(
        "serve", help="serve stored releases over a read-only HTTP API"
    )
    serve.add_argument("--store", type=Path, required=True, help="SQLite release-store file")
    serve.add_argument(
        "--policy",
        type=Path,
        required=True,
        help="access-policy JSON file (AccessPolicy.to_dict format)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    serve.add_argument(
        "--cache-size",
        type=int,
        default=None,
        dest="cache_size",
        help="releases kept hot in the read-through cache (default 32; 0 disables)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log one line per request to stderr"
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        dest="max_in_flight",
        help="bound on concurrently-handled requests; excess requests are shed "
        "with 503 + Retry-After (default unbounded)",
    )
    serve.add_argument(
        "--handler-timeout",
        type=float,
        default=None,
        dest="handler_timeout",
        help="per-request handler wall-clock bound in seconds (default none)",
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=1,
        help="serving processes sharing the port via SO_REUSEPORT "
        "(default 1; falls back to 1 where SO_REUSEPORT is unavailable)",
    )
    serve.add_argument(
        "--response-cache-size",
        type=int,
        default=None,
        dest="response_cache_size",
        help="routes whose response bytes (ETag + gzip variants) are cached "
        "per process (default 256; 0 disables)",
    )
    serve.add_argument(
        "--no-gzip",
        action="store_false",
        dest="gzip",
        default=True,
        help="never compress responses, even for Accept-Encoding: gzip clients",
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    path = write_edge_list(graph, args.output)
    print(f"wrote {graph.num_associations()} associations "
          f"({graph.num_left()} x {graph.num_right()} nodes) to {path}")
    return 0


def _cmd_disclose(args: argparse.Namespace) -> int:
    if args.output is None and args.store is None:
        print("disclose: provide --output and/or --store", file=sys.stderr)
        return 2
    if args.input is not None:
        graph = read_edge_list(args.input, name=args.input.stem)
    else:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = DisclosureConfig(
        epsilon_g=args.epsilon_g,
        delta=args.delta,
        mechanism=args.mechanism,
        specialization=SpecializationConfig(num_levels=args.levels),
    )
    release = MultiLevelDiscloser(config=config, rng=args.seed).disclose(graph)
    if args.output is not None:
        to_json_file(release.to_dict(), args.output)
        print(f"wrote release with levels {release.levels()} to {args.output}")
    if args.store is not None:
        key = ReleaseStore(args.store, clock=system_clock).save(release, key=args.key)
        print(f"stored release under key {key!r} in {args.store}")
    certificate = verify_release(release)
    print("\n".join(certificate.summary_lines()))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    if args.executor != "serial" and not args.per_trial:
        print("figure1: --executor fans out trials only with --per-trial", file=sys.stderr)
        return 2
    config = Figure1Config(
        num_levels=args.levels,
        num_trials=args.trials,
        scale=args.scale,
        seed=args.seed,
    )
    if args.analytic:
        result = run_figure1_analytic(config=config)
    elif args.per_trial:
        result = run_figure1_trials(config=config, executor=args.executor)
    else:
        result = run_figure1(config=config)
    print(result.format_table())
    if args.output is not None:
        to_json_file(result.to_dict(), args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ReleaseStore(args.store)
    if args.key is None:
        keys = store.keys()
        if not keys:
            print(f"no releases stored in {args.store}")
        else:
            print("\n".join(keys))
        return 0
    try:
        release = store.load(args.key)
    except ReleaseIntegrityError as error:
        print(f"report: {error}", file=sys.stderr)
        return 2
    rows = figure1_metrics_from_release(release)
    print(f"release {args.key!r}: dataset={release.dataset_name}, levels={release.levels()}")
    print(format_table(rows))
    if args.output is not None:
        to_json_file({"key": args.key, "rows": rows}, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if not args.store.exists():
        # Querying must never materialise an empty store at the given path.
        print(f"query: store {args.store} does not exist", file=sys.stderr)
        return 2
    store = ReleaseStore(args.store)
    release_filter = ReleaseFilter(
        mechanism=args.mechanism,
        epsilon=args.epsilon,
        graph=args.graph,
        key_glob=args.key_glob,
        since=args.since,
    )
    rows = ReleaseCatalog(store).rows(release_filter)
    print(format_rows(rows, args.format))
    return 0


def _sweep_runner(
    epsilon_g: float,
    levels: int,
    dataset: str = "dblp",
    scale: str = "tiny",
    seed: int = 0,
    store: Optional[str] = None,
) -> dict:
    """Disclose one sweep combination (module-level so it pickles).

    Persists the release under a parameter-derived key when a store is
    given — the artefact a resumed sweep serves instead of re-disclosing —
    and returns summary columns for the sweep row.
    """
    graph = load_dataset(dataset, scale=scale, seed=seed)
    config = DisclosureConfig(
        epsilon_g=epsilon_g,
        specialization=SpecializationConfig(num_levels=levels),
    )
    release = MultiLevelDiscloser(config=config, rng=seed).disclose(graph)
    key = f"sweep-{dataset}-{scale}-l{levels}-eps{epsilon_g}-seed{seed}"
    if store is not None:
        ReleaseStore(store, clock=system_clock).save(release, key=key)
    rows = figure1_metrics_from_release(release)
    expected = [row["expected_rer"] for row in rows if row.get("expected_rer") is not None]
    return {
        "store_key": key if store is not None else None,
        "levels_disclosed": len(release.levels()),
        "mean_expected_rer": sum(expected) / len(expected) if expected else None,
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    scheduler = SweepScheduler(
        executor=args.executor,
        workers=args.workers,
        budget=args.worker_budget,
        task_timeout=args.task_timeout,
    )
    runner = partial(
        _sweep_runner,
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        store=str(args.store) if args.store is not None else None,
    )
    sweep = ParameterSweep(
        runner,
        {"epsilon_g": args.epsilon_g, "levels": args.levels},
        name=f"cli-sweep-{args.dataset}-{args.scale}-seed{args.seed}",
    )
    progress = None
    if args.progress:
        def progress(line: str) -> None:
            print(line, file=sys.stderr, flush=True)
    result = sweep.run(
        record_time=True,
        scheduler=scheduler,
        journal=args.journal,
        on_error=_ON_ERROR_CHOICES[args.on_error],
        progress=progress,
    )
    if result.rows:
        print(format_table(result.rows))
    print(
        f"sweep {sweep.name!r}: {len(result.rows)} of {len(sweep.combinations())} "
        f"combination(s) done, {len(result.errors)} failed"
    )
    for error in result.errors:
        print(f"  failed {error['key']}: {error['type']}: {error['message']}", file=sys.stderr)
    if args.output is not None:
        to_json_file(result.to_dict(), args.output)
        print(f"wrote {args.output}")
    return 1 if result.errors else 0


def _cmd_refresh(args: argparse.Namespace) -> int:
    store = ReleaseStore(args.store, clock=system_clock)
    try:
        release = store.load(args.key)
    except ReleaseIntegrityError as error:
        print(f"refresh: {error}", file=sys.stderr)
        return 2
    if args.input is not None:
        graph = read_edge_list(args.input, name=args.input.stem)
    else:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = DisclosureConfig.from_dict(release.config)
    # A re-loaded graph restarts its revision counter, so the new provenance
    # revision is forced past the stored one — staleness must be monotonic.
    stored_revision = release.provenance.get("graph_revision")
    revision = graph.revision
    if stored_revision is not None:
        revision = max(revision, int(stored_revision) + 1)

    discloser = MultiLevelDiscloser(config=config, rng=args.seed)
    result = publish_refresh(
        store, args.key, revision, lambda: discloser.refresh(release, graph, revision=revision)
    )
    if result.store_key is None:
        print(
            f"refreshed {args.key!r}: re-perturbed level(s) none (epsilon spent: 0); "
            f"{args.key!r} already holds this release, nothing archived or republished"
        )
    else:
        if result.reused_from_store:
            print(f"revision {revision} already refreshed; reusing {result.store_key!r} (zero spend)")
        else:
            print(
                f"refreshed {args.key!r}: re-perturbed level(s) "
                f"{result.affected_levels or 'none'}, reused {result.reused_levels or 'none'} "
                f"byte-for-byte (epsilon spent: {result.cost.epsilon:g})"
            )
        print(f"archived as {result.store_key!r} and republished {args.key!r} (staleness cleared)")
    if args.output is not None:
        to_json_file(result.release.to_dict(), args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.store import ReleaseStore
    from repro.serving.fleet import ServerFleet, format_config_line
    from repro.serving.respcache import DEFAULT_RESPONSE_CACHE_SIZE
    from repro.serving.server import DEFAULT_CACHE_SIZE

    if not args.store.is_file():
        print(f"serve: store file {args.store} does not exist", file=sys.stderr)
        return 2
    if not args.policy.is_file():
        print(f"serve: policy file {args.policy} does not exist", file=sys.stderr)
        return 2
    cache_size = args.cache_size if args.cache_size is not None else DEFAULT_CACHE_SIZE
    response_cache_size = (
        args.response_cache_size
        if args.response_cache_size is not None
        else DEFAULT_RESPONSE_CACHE_SIZE
    )
    # SIGTERM exits through the interpreter (143) instead of killing the
    # process outright, so ``serve_forever`` stops the fleet and the exit
    # hooks reap any worker still starting; otherwise the workers live on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        fleet = ServerFleet(
            args.store,
            args.policy,
            host=args.host,
            port=args.port,
            processes=args.processes,
            cache_size=cache_size,
            response_cache_size=response_cache_size,
            gzip_enabled=args.gzip,
            verbose=args.verbose,
            max_in_flight=args.max_in_flight,
            handler_timeout=args.handler_timeout,
        ).start()
    except (OSError, KeyError, TypeError, ValueError) as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    # One structured line on stderr with the *effective* configuration
    # (post-fallback), so deployments are diagnosable from logs alone.
    print(format_config_line(fleet.describe()), file=sys.stderr, flush=True)
    keys = ReleaseStore(args.store, cache_size=0).keys()
    roles = fleet.policy.roles()
    print(
        f"serving {len(keys)} release(s) to {len(roles)} role(s) "
        f"from {fleet.processes} process(es) on {fleet.url}",
        flush=True,
    )
    print(f"try: GET {fleet.url}/releases", flush=True)
    fleet.serve_forever()
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "disclose": _cmd_disclose,
    "figure1": _cmd_figure1,
    "report": _cmd_report,
    "query": _cmd_query,
    "sweep": _cmd_sweep,
    "refresh": _cmd_refresh,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` console script.

    Expected operational failures — bad parameters
    (:class:`~repro.exceptions.ValidationError`), serving problems
    (:class:`~repro.exceptions.ServingError`) and a fail-fast sweep stop
    (:class:`~repro.exceptions.SweepInterrupted`) — exit nonzero with a
    one-line message instead of a traceback; genuine bugs still raise.
    ``Ctrl-C`` anywhere in a subcommand exits 130 (the conventional
    SIGINT status) with a one-line message, never a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EvaluationError, ValidationError, ServingError, SweepInterrupted) as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
