"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--output", "g.tsv"])
        assert args.dataset == "dblp"
        assert args.scale == "small"

    def test_disclose_mechanism_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["disclose", "--output", "r.json", "--mechanism", "magic"])

    def test_figure1_analytic_and_per_trial_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1", "--analytic", "--per-trial"])


class TestCommands:
    def test_generate_writes_edge_list(self, tmp_path, capsys):
        output = tmp_path / "graph.tsv"
        code = main(["generate", "--dataset", "dblp", "--scale", "tiny", "--seed", "1", "--output", str(output)])
        assert code == 0
        assert output.exists()
        assert "associations" in capsys.readouterr().out

    def test_disclose_synthetic(self, tmp_path, capsys):
        output = tmp_path / "release.json"
        code = main(
            [
                "disclose",
                "--scale",
                "tiny",
                "--levels",
                "4",
                "--epsilon-g",
                "0.5",
                "--seed",
                "2",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        document = json.loads(output.read_text())
        assert set(document["levels"]) == {"0", "1", "2"}
        assert "Privacy certificate" in capsys.readouterr().out

    def test_disclose_from_edge_list(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.tsv"
        main(["generate", "--dataset", "pharmacy", "--scale", "tiny", "--output", str(graph_path)])
        release_path = tmp_path / "release.json"
        code = main(
            [
                "disclose",
                "--input",
                str(graph_path),
                "--levels",
                "3",
                "--mechanism",
                "laplace",
                "--output",
                str(release_path),
            ]
        )
        assert code == 0
        document = json.loads(release_path.read_text())
        assert document["dataset_name"] == "graph"

    def test_figure1_analytic(self, tmp_path, capsys):
        output = tmp_path / "figure1.json"
        code = main(
            [
                "figure1",
                "--scale",
                "tiny",
                "--levels",
                "5",
                "--analytic",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "I5,0" in out
        assert output.exists()

    def test_figure1_sampled_without_output(self, capsys):
        code = main(["figure1", "--scale", "tiny", "--levels", "4", "--trials", "5"])
        assert code == 0
        assert "eps_g" in capsys.readouterr().out

    def test_figure1_per_trial_with_executor(self, capsys):
        code = main(
            [
                "figure1",
                "--scale",
                "tiny",
                "--levels",
                "4",
                "--trials",
                "3",
                "--per-trial",
                "--executor",
                "thread",
            ]
        )
        assert code == 0
        assert "eps_g" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", [[], ["--analytic"]])
    def test_figure1_executor_without_per_trial_is_exit_2(self, capsys, mode):
        argv = ["figure1", "--scale", "tiny", "--levels", "4", *mode, "--executor", "process"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "figure1: --executor fans out trials only with --per-trial\n"

    def test_figure1_analytic_with_per_trial_is_exit_2(self, capsys):
        argv = ["figure1", "--analytic", "--per-trial", "--executor", "process"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "not allowed with argument --analytic" in capsys.readouterr().err

    def test_disclose_requires_output_or_store(self, capsys):
        code = main(["disclose", "--scale", "tiny", "--levels", "3"])
        assert code == 2
        assert "--output and/or --store" in capsys.readouterr().err

    def test_disclose_into_store_then_report(self, tmp_path, capsys):
        store_path = tmp_path / "store.db"
        code = main(
            [
                "disclose",
                "--scale",
                "tiny",
                "--levels",
                "4",
                "--seed",
                "2",
                "--store",
                str(store_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stored release under key" in out

        # `report` with no key lists the stored releases...
        code = main(["report", "--store", str(store_path)])
        assert code == 0
        keys = capsys.readouterr().out.split()
        assert len(keys) == 1

        # ...and with a key re-renders per-level metrics from the stored
        # artefact alone — no graph, no re-disclosure, no budget spend.
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["report", "--store", str(store_path), "--key", keys[0], "--output", str(metrics_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "levels=[0, 1, 2]" in out
        rows = json.loads(metrics_path.read_text())["rows"]
        assert [row["level"] for row in rows] == [0, 1, 2]
        assert all(row["expected_rer"] is not None for row in rows)

    def test_report_empty_store(self, tmp_path, capsys):
        code = main(["report", "--store", str(tmp_path / "empty")])
        assert code == 0
        assert "no releases stored" in capsys.readouterr().out

    def test_report_unknown_key_fails_cleanly(self, tmp_path, capsys):
        code = main(["report", "--store", str(tmp_path / "empty"), "--key", "typo"])
        assert code == 2
        assert "no release stored under key 'typo'" in capsys.readouterr().err

class TestRefreshCommand:
    def _publish(self, tmp_path, seed="9"):
        """generate → disclose into a store; returns (edge list, store path)."""
        edges = tmp_path / "graph.tsv"
        store_path = tmp_path / "store.db"
        assert (
            main(
                ["generate", "--dataset", "dblp", "--scale", "tiny", "--seed", "4", "--output", str(edges)]
            )
            == 0
        )
        assert (
            main(
                [
                    "disclose",
                    "--input", str(edges),
                    "--levels", "4",
                    "--seed", seed,
                    "--store", str(store_path),
                    "--key", "live",
                ]
            )
            == 0
        )
        return edges, store_path

    def test_refresh_after_mutation_republishes(self, tmp_path, capsys):
        from repro.core.store import ReleaseStore

        edges, store_path = self._publish(tmp_path)
        with edges.open("a") as handle:
            handle.write("brand-new-author\tbrand-new-paper\n")
        code = main(
            ["refresh", "--store", str(store_path), "--key", "live", "--input", str(edges), "--seed", "9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "re-perturbed level(s) [0, 1, 2]" in out
        assert "staleness cleared" in out

        store = ReleaseStore(store_path)
        refreshed = store.load("live")
        provenance = refreshed.provenance
        assert provenance["affected_levels"] == [0, 1, 2]
        assert provenance["refreshed_from_revision"] is not None
        assert provenance["graph_revision"] > provenance["refreshed_from_revision"]
        # Archived under the revision-qualified key as well.
        archive_key = f"live-r{provenance['graph_revision']}"
        assert archive_key in store.keys()

    def test_refresh_matches_from_scratch_disclosure(self, tmp_path, capsys):
        from repro.core.store import ReleaseStore

        edges, store_path = self._publish(tmp_path)
        with edges.open("a") as handle:
            handle.write("brand-new-author\tbrand-new-paper\n")
        assert (
            main(
                ["refresh", "--store", str(store_path), "--key", "live", "--input", str(edges), "--seed", "9"]
            )
            == 0
        )
        # From-scratch disclosure of the *mutated* graph under the same seed.
        assert (
            main(
                [
                    "disclose",
                    "--input", str(edges),
                    "--levels", "4",
                    "--seed", "9",
                    "--store", str(store_path),
                    "--key", "scratch",
                ]
            )
            == 0
        )
        store = ReleaseStore(store_path)
        refreshed = store.load("live").to_dict()
        scratch = store.load("scratch").to_dict()
        refreshed.pop("provenance")
        scratch.pop("provenance")
        assert refreshed == scratch

    def test_noop_refresh_spends_nothing(self, tmp_path, capsys):
        edges, store_path = self._publish(tmp_path)
        code = main(
            ["refresh", "--store", str(store_path), "--key", "live", "--input", str(edges), "--seed", "9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "re-perturbed level(s) none" in out
        assert "epsilon spent: 0" in out

    def test_rerun_refresh_on_unchanged_edges_stores_nothing(self, tmp_path, capsys):
        from repro.core.store import ReleaseStore

        edges, store_path = self._publish(tmp_path)
        store = ReleaseStore(store_path)
        keys = store.keys()
        live = store.fingerprint("live")
        command = [
            "refresh", "--store", str(store_path), "--key", "live", "--input", str(edges), "--seed", "9"
        ]
        capsys.readouterr()
        for _ in range(2):
            assert main(command) == 0
            out = capsys.readouterr().out
            assert len(out.splitlines()) == 1, out
            assert "nothing archived or republished" in out
        assert store.keys() == keys
        assert store.fingerprint("live") == live

    def test_refresh_of_an_archived_revision_reuses_the_archive(self, tmp_path, capsys):
        from repro.core.store import ReleaseStore

        edges, store_path = self._publish(tmp_path)
        store = ReleaseStore(store_path)
        base = store.load("live")
        with edges.open("a") as handle:
            handle.write("brand-new-author\tbrand-new-paper\n")
        command = [
            "refresh", "--store", str(store_path), "--key", "live", "--input", str(edges), "--seed", "9"
        ]
        assert main(command) == 0
        refreshed = store.load("live")
        revision = refreshed.provenance["graph_revision"]
        archive_key = f"live-r{revision}"
        archived = store.fingerprint(archive_key)
        capsys.readouterr()

        # A second refresher that loaded `live` before the first one
        # republished computes the same revision: restore the base and rerun.
        store.save(base, key="live")
        assert main(command) == 0
        out = capsys.readouterr().out
        assert f"revision {revision} already refreshed; reusing {archive_key!r} (zero spend)" in out
        assert f"archived as {archive_key!r} and republished 'live'" in out
        assert store.fingerprint(archive_key) == archived
        assert store.load("live").to_dict() == refreshed.to_dict()

    def test_refresh_unknown_key_fails_cleanly(self, tmp_path, capsys):
        edges, store_path = self._publish(tmp_path)
        code = main(
            ["refresh", "--store", str(store_path), "--key", "typo", "--input", str(edges)]
        )
        assert code == 2
        assert "typo" in capsys.readouterr().err


class TestSweepCommand:
    def _run(self, tmp_path, extra=()):
        return main(
            [
                "sweep", "--dataset", "dblp", "--scale", "tiny",
                "--epsilon-g", "0.5", "--levels", "3", "--seed", "7",
                "--store", str(tmp_path / "store.db"),
                "--journal", str(tmp_path / "state.json"),
                *extra,
            ]
        )

    def test_sweep_discloses_grid_into_store(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        out = capsys.readouterr().out
        assert "sweep-dblp-tiny-l3-eps0.5-seed7" in out
        assert "1 of 1 combination(s) done" in out

    def test_rerun_resumes_from_journal(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        first = capsys.readouterr().out
        assert self._run(tmp_path) == 0
        resumed = capsys.readouterr().out
        # The resumed run reuses the journaled row verbatim — identical
        # store key, metrics and even the recorded elapsed time.
        assert resumed == first

    def test_foreign_journal_is_a_one_line_error(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        capsys.readouterr()
        # Same journal path, different grid -> fingerprint mismatch must be
        # a one-line `repro sweep:` message on stderr, never a traceback.
        code = main(
            [
                "sweep", "--dataset", "dblp", "--scale", "tiny",
                "--epsilon-g", "0.7", "--levels", "3", "--seed", "7",
                "--store", str(tmp_path / "store.db"),
                "--journal", str(tmp_path / "state.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro sweep:")
        assert "different run" in err
        assert "Traceback" not in err

class TestSweepOrchestrationFlags:
    """The scheduler/snapshot switches: --progress, --workers, --worker-budget."""

    def _run(self, tmp_path, extra=()):
        return main(
            [
                "sweep", "--dataset", "dblp", "--scale", "tiny",
                "--epsilon-g", "0.5", "1.0",
                "--levels", "3", "--seed", "7",
                "--store", str(tmp_path / "store.db"),
                "--journal", str(tmp_path / "state.json"),
                *extra,
            ]
        )

    def test_progress_streams_canonical_json_lines_on_stderr(self, tmp_path, capsys):
        assert self._run(tmp_path, extra=["--progress"]) == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert lines, "expected sweep-progress lines on stderr"
        for line in lines:
            payload = json.loads(line)
            assert payload["event"] == "sweep-progress"
            assert payload["total"] == 2
        final = json.loads(lines[-1])
        assert final["done"] == 2
        assert final["pending"] == final["running"] == 0

    def test_progress_persists_the_event_stream_beside_the_journal(self, tmp_path, capsys):
        assert self._run(tmp_path, extra=["--progress"]) == 0
        stream = tmp_path / "state.json.events.jsonl"
        assert stream.is_file()
        states = [json.loads(line)["state"] for line in stream.read_text().splitlines()]
        assert states.count("DONE") == 2

    def test_workers_over_budget_is_a_one_line_exit_2(self, tmp_path, capsys):
        code = self._run(
            tmp_path,
            extra=["--executor", "process", "--workers", "8", "--worker-budget", "2"],
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro sweep:")
        assert "--workers 8 exceeds the worker budget of 2 slot(s)" in err
        assert "raise --worker-budget" in err
        assert "Traceback" not in err

    def test_inner_workers_is_no_longer_a_flag(self, tmp_path, capsys):
        # A disclosure runs in-process, so the sweep has no inner layer to size.
        with pytest.raises(SystemExit) as excinfo:
            self._run(tmp_path, extra=["--inner-workers", "many"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --inner-workers many" in capsys.readouterr().err

    def test_process_executor_runs_the_sweep(self, tmp_path, capsys):
        assert self._run(
            tmp_path,
            extra=["--executor", "process", "--workers", "2", "--worker-budget", "2"],
        ) == 0
        out = capsys.readouterr().out
        assert "2 of 2 combination(s) done" in out

    def test_manager_is_no_longer_an_executor_choice(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            self._run(tmp_path, extra=["--executor", "manager"])
        assert "invalid choice: 'manager'" in capsys.readouterr().err


class TestQueryCommand:
    """`repro query` — the catalog CLI over a SQLite store."""

    def _seed(self, store_path):
        """Disclose two releases (different epsilon) into `store_path`."""
        for epsilon, seed in (("0.5", "2"), ("1.0", "3")):
            code = main(
                [
                    "disclose", "--scale", "tiny", "--levels", "4",
                    "--epsilon-g", epsilon, "--seed", seed,
                    "--key", f"rel-eps{epsilon}",
                    "--store", str(store_path),
                ]
            )
            assert code == 0

    def test_table_output_lists_catalog_columns(self, tmp_path, capsys):
        store = tmp_path / "releases.db"
        self._seed(store)
        capsys.readouterr()
        assert main(["query", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        for column in ("key", "mechanism", "epsilon", "levels", "graph", "created_at"):
            assert column in out
        assert "rel-eps0.5" in out and "rel-eps1.0" in out
        # The CLI write path stamps wall-clock created_at timestamps.
        assert out.count("T") >= 2

    def test_epsilon_filter_and_json_output(self, tmp_path, capsys):
        store = tmp_path / "releases.db"
        self._seed(store)
        capsys.readouterr()
        assert main(["query", "--store", str(store), "--epsilon", "0.5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["key"] for row in rows] == ["rel-eps0.5"]
        assert rows[0]["epsilon"] == 0.5
        assert rows[0]["mechanism"] == "gaussian"

    def test_key_glob_and_csv_output(self, tmp_path, capsys):
        store = tmp_path / "store-without-suffix"
        self._seed(store)
        capsys.readouterr()
        assert main(["query", "--store", str(store), "--key-glob", "*eps1.0", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("key,")
        assert len(lines) == 2 and lines[1].startswith("rel-eps1.0,")

    def test_empty_result_prints_placeholder(self, tmp_path, capsys):
        store = tmp_path / "releases.db"
        self._seed(store)
        capsys.readouterr()
        assert main(["query", "--store", str(store), "--mechanism", "laplace"]) == 0
        assert "(no matching releases)" in capsys.readouterr().out

    def test_missing_store_is_exit_2_not_a_fresh_store(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.db"
        assert main(["query", "--store", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err
        # Querying must never materialise an empty store on disk.
        assert not missing.exists()

    def test_json_output_identical_across_backends(self, tmp_path, capsys):
        """`repro query --epsilon 0.5 --format json` on a SQLite store is
        byte-identical to the same catalog query rendered from an in-memory
        store (the full-scan path) seeded with the same releases."""
        from repro.core.catalog import ReleaseCatalog, ReleaseFilter, format_rows
        from repro.core.config import DisclosureConfig
        from repro.core.discloser import MultiLevelDiscloser
        from repro.datasets.dblp_like import generate_dblp_like
        from repro.grouping.specialization import SpecializationConfig

        from backend_matrix import make_release_store

        stores = {kind: make_release_store(kind, tmp_path) for kind in ("memory", "sqlite")}
        for epsilon, key in ((0.5, "rel-a"), (1.0, "rel-b")):
            release = MultiLevelDiscloser(
                DisclosureConfig(
                    epsilon_g=epsilon,
                    specialization=SpecializationConfig(num_levels=4),
                ),
                rng=9,
            ).disclose(generate_dblp_like(num_authors=60, seed=4))
            for store in stores.values():
                store.save(release, key=key)
        capsys.readouterr()
        root = stores["sqlite"].backend.root
        assert main(["query", "--store", str(root), "--epsilon", "0.5", "--format", "json"]) == 0
        sqlite_output = capsys.readouterr().out
        scan_rows = ReleaseCatalog(stores["memory"]).rows(ReleaseFilter(epsilon=0.5))
        assert sqlite_output == format_rows(scan_rows, "json") + "\n"
        rows = json.loads(sqlite_output)
        assert [row["key"] for row in rows] == ["rel-a"]


class TestKeyboardInterrupt:
    def test_ctrl_c_is_exit_130_with_one_line_message(self, capsys, monkeypatch):
        import repro.cli as cli_module

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli_module._COMMANDS, "figure1", interrupted)
        code = main(["figure1", "--scale", "tiny"])
        assert code == 130
        err = capsys.readouterr().err
        assert err == "repro figure1: interrupted\n"
        assert "Traceback" not in err
