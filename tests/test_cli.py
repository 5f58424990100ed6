"""Tests for the command line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.dataset import Dataset, save_csv


@pytest.fixture
def csv_dataset(tmp_path):
    """A small labelled CSV dataset with one obvious full-space outlier."""
    rng = np.random.default_rng(0)
    data = rng.normal(0.0, 0.05, size=(80, 4))
    data[-1] = 3.0
    labels = np.zeros(80, dtype=int)
    labels[-1] = 1
    dataset = Dataset(data=data, labels=labels, name="cli-demo")
    path = tmp_path / "cli_demo.csv"
    save_csv(dataset, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rank_requires_dataset_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank"])

    def test_rank_parses_options(self):
        args = build_parser().parse_args(
            ["rank", "--dataset", "toy-correlated", "--method", "LOF", "--top", "5"]
        )
        assert args.command == "rank"
        assert args.method == "LOF"
        assert args.top == 5

    def test_mutually_exclusive_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank", "--csv", "x.csv", "--dataset", "glass"])

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank", "--dataset", "glass", "--method", "SOD"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--dataset", "glass", "--scoring-engine", "streaming"],
            ["contrast", "--dataset", "glass", "--engine", "scalar"],
        ],
    )
    def test_retired_engine_flags_rejected(self, argv):
        # Both selected bit-identical duplicates of the default path.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_datasets_command_lists_builtins(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "toy-correlated" in out
        assert "ionosphere" in out

    def test_rank_command_on_csv(self, capsys, csv_dataset):
        code = main(["rank", "--csv", str(csv_dataset), "--method", "LOF", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "method: LOF" in out
        # The planted full-space outlier is object 79 and must rank first.
        first_row = out.strip().splitlines()[2].split()
        assert first_row[1] == "79"

    def test_rank_command_on_builtin_dataset(self, capsys):
        code = main(
            ["rank", "--dataset", "toy-correlated", "--method", "LOF", "--top", "2", "--seed", "1"]
        )
        assert code == 0
        assert "rank" in capsys.readouterr().out

    def test_contrast_command(self, capsys, csv_dataset):
        code = main(
            ["contrast", "--csv", str(csv_dataset), "--iterations", "10", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "contrast" in out
        assert "attr_" in out

    def test_compare_command(self, capsys, csv_dataset):
        code = main(
            ["compare", "--csv", str(csv_dataset), "--methods", "LOF", "RANDSUB", "--min-pts", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dataset" in out
        assert "LOF" in out and "RANDSUB" in out

    def test_rank_command_with_spec(self, capsys, csv_dataset):
        code = main(
            ["rank", "--csv", str(csv_dataset), "--spec", "fullspace+lof(min_pts=8)", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fullspace+lof" in out
        assert out.strip().splitlines()[2].split()[1] == "79"

    def test_compare_command_with_specs(self, capsys, csv_dataset):
        code = main(
            [
                "compare",
                "--csv",
                str(csv_dataset),
                "--methods",
                "LOF",
                "--specs",
                "random_subspaces(n_subspaces=5)+knn(k=5)",
            ]
        )
        assert code == 0
        assert "random_subspaces" in capsys.readouterr().out

    def test_registry_command(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        assert "searchers:" in out and "scorers:" in out and "aggregators:" in out
        assert "hics" in out and "lof" in out and "average" in out

    def test_fit_then_score_round_trip(self, capsys, csv_dataset, tmp_path):
        model = tmp_path / "model.npz"
        code = main(
            [
                "fit",
                "--csv",
                str(csv_dataset),
                "--spec",
                "fullspace+lof(min_pts=8)",
                "--out",
                str(model),
            ]
        )
        assert code == 0
        assert model.exists()
        assert "fitted" in capsys.readouterr().out
        code = main(["score", "--model", str(model), "--csv", str(csv_dataset), "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "model:" in out
        # Scoring the reference file itself against the model must still put
        # the planted outlier first.
        assert out.strip().splitlines()[2].split()[1] == "79"
        # Independent scoring reaches the same conclusion on this batch.
        code = main(
            ["score", "--model", str(model), "--csv", str(csv_dataset), "--top", "3", "--independent"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[2].split()[1] == "79"

    def test_user_errors_exit_cleanly(self, capsys, csv_dataset, tmp_path):
        # Spec typo: one-line error on stderr, exit 2, no traceback.
        code = main(["rank", "--csv", str(csv_dataset), "--spec", "hics(bogus=1)+lof"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bogus" in err
        # Unreadable model file.
        missing = tmp_path / "missing.npz"
        code = main(["score", "--model", str(missing), "--csv", str(csv_dataset)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fit_rejects_pca_front_end(self, capsys, csv_dataset, tmp_path):
        code = main(
            [
                "fit",
                "--csv",
                str(csv_dataset),
                "--method",
                "PCALOF1",
                "--out",
                str(tmp_path / "m.npz"),
            ]
        )
        assert code == 2
        assert "fittable" in capsys.readouterr().err
