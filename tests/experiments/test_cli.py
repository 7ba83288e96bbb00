"""Tests for the repro-experiments CLI.

A table row's dispatch reads its rows from the session's cell cache
(``conftest.py``), so each (row, scale, seed) is simulated once.
"""

import pathlib

import pytest

from repro.experiments import EXPERIMENTS, cli
from repro.experiments.cli import main

RESULTS_DIR = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"


class TestCli:
    def test_figure1_runs(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Purely serverless" in out

    def test_sweep_codec_runs(self, capsys):
        assert main(["--scale", "16384", "sweep-codec"]) == 0
        out = capsys.readouterr().out
        assert "methcomp_ratio" in out

    def test_seed_flag_parsed(self):
        args = cli.build_parser().parse_args(["--seed", "3", "sweep-codec"])
        assert (args.seed, args.command) == (3, "sweep-codec")

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep-everything"])

    def test_scale_flag_parsed(self, capsys):
        # Tiny smoke run of the heaviest command with a huge scale so it
        # finishes fast.
        assert main(["--scale", "16384", "table1"]) == 0
        out = capsys.readouterr().out
        assert "purely-serverless" in out
        assert "Paper" in out

    def test_exchange_runs(self, capsys):
        assert main(["--scale", "16384", "exchange"]) == 0
        out = capsys.readouterr().out
        assert "cache-supported" in out

    def test_usage_block_documents_every_subcommand(self):
        """The usage block is generated from the table plus the other
        commands, so nothing registered can go undocumented (``sweep-io``
        and ``replay-verify`` once were)."""
        names = [*EXPERIMENTS, *(name for name, _, _ in cli.OTHER_COMMANDS)]
        assert "sweep-io" in names and "replay-verify" in names
        for name in names:
            assert f"    repro-experiments {name}" in cli.__doc__, name
            flags = ["--manifest", "m.json"] if name == "replay-verify" else []
            assert cli.build_parser().parse_args([name, *flags]).command == name

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_dispatches_and_prints_its_title(self, name, capsys):
        assert main(["--scale", "16384", name]) == 0
        out = capsys.readouterr().out
        assert out.startswith(EXPERIMENTS[name].title + "\n")

    @pytest.mark.parametrize(
        "name", ["sweep-faults", "sweep-speculation", "sweep-codec"]
    )
    def test_cli_reprints_the_committed_table(self, name, capsys):
        """At the harness's scale the CLI prints ``benchmarks/results``
        byte for byte: same sweep defaults, same title (pinned for the
        three cheapest; ``make parity`` regenerates them all)."""
        assert main(["--scale", "1024", name]) == 0
        committed = RESULTS_DIR / f"{EXPERIMENTS[name].result}.txt"
        assert capsys.readouterr().out == committed.read_text(encoding="utf-8")

    def test_sweep_streaming_runs(self, capsys):
        assert main(["--scale", "16384", "sweep-streaming"]) == 0
        out = capsys.readouterr().out
        assert "S10: streaming vs staged exchange" in out
        assert "overlap_s" in out
        assert "backpressure_waits" in out

    def test_sweep_skew_runs(self, capsys):
        assert main(["--scale", "16384", "sweep-skew"]) == 0
        out = capsys.readouterr().out
        assert "S11: skew-aware shuffle" in out
        assert "partition_skew" in out
        assert "hot_shard_share" in out
        assert "rebalanced" in out
