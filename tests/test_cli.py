"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_sketch_defaults(self):
        args = build_parser().parse_args(["sketch"])
        assert args.command == "sketch"
        assert args.eps == [0.02, 0.05, 0.1]
        assert args.kind == "qdigest"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.nodes == 150
        assert args.phi == 0.5

    def test_sweep_variable_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "bogus"])

    def test_loss_rates_parsed(self):
        args = build_parser().parse_args(["loss", "--rates", "0", "0.1"])
        assert args.rates == [0.0, 0.1]

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.command == "faults"
        assert args.loss == [0.0, 0.05, 0.1]
        assert args.retries == [0, 2]
        assert args.burst is None
        assert args.churn == 0.0
        assert args.patience == 2

    def test_history_defaults(self):
        args = build_parser().parse_args(["history"])
        assert args.command == "history"
        assert args.phis == [0.5, 0.95]
        assert args.windows == [8, 32]
        assert args.half_lives == [4.0, 16.0]
        assert args.at_round is None
        assert args.reads == 10_000

    def test_faults_matrix_parsed(self):
        args = build_parser().parse_args(
            ["faults", "--loss", "0.05", "0.1", "--retries", "0", "1", "3",
             "--burst", "8", "--churn", "0.01"]
        )
        assert args.loss == [0.05, 0.1]
        assert args.retries == [0, 1, 3]
        assert args.burst == 8.0
        assert args.churn == 0.01


class TestCommands:
    def test_run_prints_comparison(self, capsys):
        code = main(["run", "--nodes", "50", "--rounds", "12", "--runs", "1",
                     "--range", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IQ" in out and "TAG" in out
        assert "maxE [mJ]" in out
        assert "True" in out  # exactness column

    def test_sweep_prints_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.08")
        code = main(["sweep", "noise_percent"])
        assert code == 0
        out = capsys.readouterr().out
        assert "noise_percent=0" in out
        assert "IQ" in out

    def test_sweep_chart_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        code = main(["sweep", "noise_percent", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "F=IQ" in out

    def test_xi_trace_prints_chart(self, capsys):
        code = main(["xi-trace", "--rounds", "10", "--nodes", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "#" in out
        assert "band-contains-next-quantile ratio" in out

    def test_loss_prints_series(self, capsys):
        code = main(
            ["loss", "--rates", "0", "--nodes", "40", "--rounds", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rank-err" in out
        assert "TAG" in out

    def test_faults_prints_matrix(self, capsys):
        code = main(
            ["faults", "--loss", "0", "0.1", "--retries", "0", "2",
             "--nodes", "30", "--rounds", "8", "--range", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for column in ("exact", "rank-err", "reinit", "hotE [mJ]", "retx"):
            assert column in out
        assert "TAG" in out and "SKQ@0.05" in out and "SK1@0.05" in out

    def test_faults_burst_and_churn(self, capsys):
        code = main(
            ["faults", "--loss", "0.1", "--retries", "1", "--burst", "6",
             "--churn", "0.02", "--nodes", "30", "--rounds", "8",
             "--range", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Gilbert-Elliott" in out
        assert "churn=0.02" in out

    def test_sketch_prints_comparison(self, capsys):
        code = main(
            ["sketch", "--eps", "0.1", "--nodes", "50", "--rounds", "10",
             "--runs", "1", "--range", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SKQ@0.1" in out and "TAG" in out
        assert "rank-err" in out

    def test_history_prints_reads_and_cache(self, capsys):
        code = main(
            ["history", "--nodes", "25", "--rounds", "8", "--reads", "200",
             "--at-round", "4", "--seed", "3", "--range-radio", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "history service:" in out
        assert "win8" in out and "hl4" in out and "all-time" in out
        assert "at round 4" in out
        assert "reads/sec" in out and "hit rate" in out

    def test_history_at_round_prints_the_trust_flag(self, capsys):
        """CI's history slice: round 5 was absorbed untrusted on every
        track, and its at-round lines say so."""
        code = main(
            "history --phis 0.5 0.95 --windows 4 8 --half-lives 4 16 "
            "--at-round 5 --reads 20 --loss 0.05 --retries 2 --nodes 24 "
            "--rounds 10 --range-radio 60 --seed 7".split()
        )
        assert code == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("at round 5:")
        ]
        assert len(lines) == 3
        assert all(line.endswith("age 0 rounds, untrusted)") for line in lines)

    def test_pressure_prints_table(self, capsys, monkeypatch):
        code = main(["pressure", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "skip=1" in out
        assert "air pressure" in out
