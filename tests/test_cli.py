"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.duration == 20.0
        assert args.access == "5g"
        assert args.out == "trace.jsonl"

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "--duration", "5", "--access", "emulated",
             "--cross-mbps", "14",
             "--aware-ran", "--out", "x.jsonl"]
        )
        assert args.duration == 5.0
        assert args.access == "emulated"
        assert args.aware_ran

    def test_invalid_access_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--access", "wifi"])


class TestCommands:
    def test_run_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        rc = main(["run", "--duration", "3", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "QoE medians" in captured

        rc = main(["analyze", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "rtp_sender_core" in captured
        assert "grant utilization" in captured
        assert "QoE medians" in captured
        assert "quantization step" in captured

    def test_run_emulated(self, tmp_path, capsys):
        out = tmp_path / "e.jsonl"
        rc = main(["run", "--duration", "3", "--access", "emulated",
                   "--out", str(out)])
        assert rc == 0
        assert "QoE medians" in capsys.readouterr().out

    def test_figure_fig5(self, capsys):
        rc = main(["figure", "fig5", "--duration", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quantization" in out

    def test_figure_unknown(self, capsys):
        rc = main(["figure", "fig99"])
        assert rc == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_sweep_proactive(self, capsys):
        rc = main(["sweep", "proactive", "--duration", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "proactive" in out and "BSR/SR only" in out

    def test_sweep_unknown(self, capsys):
        rc = main(["sweep", "nope"])
        assert rc == 2
        assert "unknown sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--batch"]], ids=["streaming", "batch"])
    def test_analyze_malformed_trace(self, tmp_path, capsys, mode):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\n{"type": "grant", "bogus": 1}\n')
        rc = main(["analyze", str(path), *mode])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{path}:2:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--batch"]], ids=["streaming", "batch"])
    def test_analyze_missing_file(self, tmp_path, capsys, mode):
        path = tmp_path / "missing.jsonl"
        rc = main(["analyze", str(path), *mode])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
        assert "Traceback" not in err

    def test_run_invalid_duration(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        rc = main(["run", "--duration", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "duration_s" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestReproduceAll:
    def test_parser_accepts(self):
        args = build_parser().parse_args(
            ["reproduce-all", "--out", "x", "--scale", "0.5"]
        )
        assert args.scale == 0.5
