"""Tests for the ``repro-hics bench`` sub-command."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import build_parser, main


class TestBenchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.profile == "ci"
        assert args.backend == os.environ.get("REPRO_BACKEND")
        assert not args.no_cache
        assert not args.list_specs

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--profile", "huge"])

    def test_only_accepts_several_specs(self):
        args = build_parser().parse_args(["bench", "--only", "fig05", "fig07"])
        assert args.only == ["fig05", "fig07"]


class TestBenchCommand:
    def test_list_shows_all_registered_specs(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig02", "fig05", "fig11", "ablation_pruning"):
            assert name in out
        assert "ci" in out and "quick" in out and "full" in out

    def test_unknown_spec_errors_cleanly(self, capsys, tmp_path):
        code = main(["bench", "--only", "fig99", "--artifacts", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        assert "Traceback" not in err

    def test_unknown_spec_runs_nothing(self, capsys, tmp_path):
        # The suite fails fast: no artifact is produced for the valid name.
        code = main(["bench", "--only", "fig02", "fig99", "--artifacts", str(tmp_path)])
        assert code == 2
        assert not os.path.exists(tmp_path / "ci" / "fig02.json")

    def test_run_writes_artifacts_summary_and_cache(self, capsys, tmp_path):
        code = main(
            ["bench", "--only", "fig02", "fig02_lof", "--artifacts", str(tmp_path), "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig02" in out and "suite: 2 experiments" in out
        artifact = json.loads((tmp_path / "ci" / "fig02.json").read_text())
        assert artifact["profile"] == "ci"
        assert artifact["manifest"]["cache_misses"] == artifact["manifest"]["n_cells"]
        summary = json.loads((tmp_path / "ci" / "summary.json").read_text())
        assert summary["n_experiments"] == 2
        assert os.path.isdir(tmp_path / "cache")

        # Warm re-run: everything served from the cache, rows byte-identical.
        assert main(["bench", "--only", "fig02", "--artifacts", str(tmp_path)]) == 0
        warm = json.loads((tmp_path / "ci" / "fig02.json").read_text())
        assert warm["manifest"]["cache_hits"] == warm["manifest"]["n_cells"]
        assert warm["rows"] == artifact["rows"]

    def test_no_cache_bypasses_the_store(self, capsys, tmp_path):
        code = main(
            ["bench", "--only", "fig02", "--artifacts", str(tmp_path), "--no-cache"]
        )
        assert code == 0
        assert not os.path.isdir(tmp_path / "cache")
        artifact = json.loads((tmp_path / "ci" / "fig02.json").read_text())
        assert artifact["manifest"]["cache_hits"] == 0
        assert artifact["manifest"]["cache_misses"] == 0

    def test_tables_flag_prints_figure_table(self, capsys, tmp_path):
        assert main(["bench", "--only", "fig02", "--artifacts", str(tmp_path), "--tables"]) == 0
        assert "figure-2" in capsys.readouterr().out
