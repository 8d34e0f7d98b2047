"""Docs-freshness checks: the documentation must track the code.

CI runs this module explicitly (see ``.github/workflows/ci.yml``), so a PR
that adds a CLI subcommand without documenting it — or renames a pipeline
stage without updating the architecture notes — fails fast.
"""

from pathlib import Path

import argparse

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"


def cli_subcommands():
    """The subcommand names `repro --help` advertises, from the parser itself."""
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    raise AssertionError("repro parser has no subcommands")


class TestReadme:
    def test_readme_exists(self):
        assert README.is_file(), "top-level README.md is missing"

    def test_readme_documents_every_cli_subcommand(self):
        text = README.read_text(encoding="utf-8")
        missing = [
            name for name in cli_subcommands() if f"repro {name}" not in text
        ]
        assert not missing, f"README.md does not mention: {missing}"

    def test_readme_has_the_two_tier_test_commands(self):
        text = README.read_text(encoding="utf-8")
        assert "python -m pytest -x -q" in text
        assert "-m slow benchmarks" in text

    def test_readme_covers_the_switches(self):
        text = README.read_text(encoding="utf-8")
        for switch in ("engine", "executor", "ReleaseStore"):
            assert switch in text, f"README.md does not mention {switch!r}"


class TestArchitecture:
    def test_architecture_doc_exists(self):
        assert ARCHITECTURE.is_file(), "docs/ARCHITECTURE.md is missing"

    def test_architecture_names_the_five_stages(self):
        text = ARCHITECTURE.read_text(encoding="utf-8")
        for stage in ("specialize", "compile", "calibrate", "perturb", "assemble"):
            assert stage in text.lower(), f"ARCHITECTURE.md does not mention {stage!r}"

    def test_architecture_covers_the_new_layers(self):
        text = ARCHITECTURE.read_text(encoding="utf-8")
        for term in ("StoreBackend", "ReleaseServer", "Executor", "vectorized"):
            assert term in text, f"ARCHITECTURE.md does not mention {term!r}"

    def test_architecture_covers_the_fault_tolerance_layer(self):
        text = ARCHITECTURE.read_text(encoding="utf-8")
        for term in ("RetryPolicy", "RunJournal", "max_in_flight", "quarantin"):
            assert term in text, f"ARCHITECTURE.md does not mention {term!r}"

    def test_readme_covers_the_fault_tolerance_knobs(self):
        text = README.read_text(encoding="utf-8")
        for switch in ("RetryPolicy", "task_timeout", "journal", "max_in_flight"):
            assert switch in text, f"README.md does not mention {switch!r}"

    def test_architecture_covers_serving_at_scale(self):
        text = ARCHITECTURE.read_text(encoding="utf-8")
        for term in ("ResponseCache", "ServerFleet", "SO_REUSEPORT", "ETag", "304"):
            assert term in text, f"ARCHITECTURE.md does not mention {term!r}"

    def test_readme_covers_the_serving_scale_switches(self):
        text = README.read_text(encoding="utf-8")
        for switch in (
            "--processes",
            "--no-gzip",
            "response_cache_size",
            "ServerFleet",
        ):
            assert switch in text, f"README.md does not mention {switch!r}"

    def test_architecture_covers_the_release_catalog(self):
        text = ARCHITECTURE.read_text(encoding="utf-8")
        for term in (
            "SqliteBackend",
            "ReleaseCatalog",
            "ReleaseFilter",
            "schema_version",
            "MIGRATIONS",
            "BEGIN IMMEDIATE",
            "graph fingerprint",
        ):
            assert term in text, f"ARCHITECTURE.md does not mention {term!r}"

    def test_readme_covers_the_query_cli_and_sqlite_store(self):
        text = README.read_text(encoding="utf-8")
        for switch in (
            "catalog.db",
            "SqliteBackend",
            "import_directory_store",
            "--key-glob",
            "--since",
            "--format json",
            "repro query",
        ):
            assert switch in text, f"README.md does not mention {switch!r}"

    def test_architecture_covers_incremental_redisclosure(self):
        text = ARCHITECTURE.read_text(encoding="utf-8")
        for term in (
            "mutation log",
            "delta_compile",
            "fingerprint_level",
            "refresh_release",
            "StalenessIndex",
            "bit-identical",
            "repro refresh",
        ):
            assert term in text, f"ARCHITECTURE.md does not mention {term!r}"

    def test_readme_covers_the_refresh_switches(self):
        text = README.read_text(encoding="utf-8")
        for switch in (
            "GraphPublisher.refresh",
            "repro refresh",
            "staleness",
            "revision-qualified",
        ):
            assert switch in text, f"README.md does not mention {switch!r}"

    def test_architecture_covers_sweep_orchestration(self):
        text = ARCHITECTURE.read_text(encoding="utf-8")
        for term in (
            "SweepSnapshot",
            "TaskEvent",
            "RETRYING",
            "SweepScheduler",
            "ProcessExecutor",
            "sweep-progress",
            "on_retry",
        ):
            assert term in text, f"ARCHITECTURE.md does not mention {term!r}"

    def test_readme_covers_the_sweep_orchestration_switches(self):
        text = README.read_text(encoding="utf-8")
        for switch in (
            "--progress",
            "--workers",
            "--worker-budget",
            "--executor process",
            "sweep-progress",
            "SweepScheduler",
            "SweepSnapshot",
        ):
            assert switch in text, f"README.md does not mention {switch!r}"
