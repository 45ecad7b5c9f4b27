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

    @pytest.mark.parametrize(
        "mode", [[], ["--synchronize"]], ids=["streaming", "synchronize"]
    )
    def test_analyze_malformed_trace(self, tmp_path, capsys, mode):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\n{"type": "grant", "bogus": 1}\n')
        rc = main(["analyze", str(path), *mode])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{path}:2:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mode", [[], ["--synchronize"]], ids=["streaming", "synchronize"]
    )
    def test_analyze_missing_file(self, tmp_path, capsys, mode):
        path = tmp_path / "missing.jsonl"
        rc = main(["analyze", str(path), *mode])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
        assert "Traceback" not in err

    def test_analyze_batch_flag_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta"}\n')
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), "--batch"])
        assert exc.value.code == 2
        assert "--batch" in capsys.readouterr().err

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


def _section(text, title):
    """``{first cell: rest}`` of the table printed under ``title``."""
    block = text.split(title, 1)[1].split("-" * 64, 1)[0]
    lines = block.strip("\n").splitlines()[2:]  # header and rule
    return {line.split()[0]: line.split()[1:] for line in lines}


class TestAnalyzeSynchronize:
    """``analyze --synchronize``: two streaming passes over a skewed file."""

    @pytest.fixture(scope="class")
    def skewed(self, tmp_path_factory):
        from repro.app import ScenarioConfig, run_session
        from repro.net.topology import PathConfig
        from repro.trace import save_trace

        config = ScenarioConfig(
            duration_s=6.0, seed=7, record_tbs=True, time_sync=True,
            path=PathConfig(
                clock_offsets_us={"sender": 6_000, "receiver": -3_000}
            ),
        )
        path = tmp_path_factory.mktemp("skewed") / "t.jsonl"
        save_trace(run_session(config).trace, path)
        return path

    def _analyze(self, capsys, *argv):
        assert main(["analyze", *argv]) == 0
        return capsys.readouterr().out

    def test_matches_the_synchronized_session(
        self, skewed, capsys, monkeypatch
    ):
        from repro.core import AthenaSession, format_table, synchronize_trace
        from repro.trace import io

        athena = AthenaSession(synchronize_trace(io.load_trace(skewed)))

        def no_load(path):
            raise AssertionError("analyze loaded the whole trace")

        monkeypatch.setattr(io, "load_trace", no_load)
        out = self._analyze(capsys, str(skewed), "--synchronize")
        trace = athena.trace
        assert (
            f"records: {len(trace.packets)} packets, "
            f"{len(trace.transport_blocks)} transport blocks, "
            f"{len(trace.grants)} grants, {len(trace.frames)} media units, "
            f"{len(trace.probes)} probes, "
            f"{len(trace.sync_exchanges)} sync exchanges"
        ) in out
        report = athena.root_causes()
        causes = _section(out, "dominant frame-delay causes:")
        assert {cause: int(n) for cause, (n,) in causes.items()} == {
            cause.value: n for cause, n in report.cause_counts.items()
        }
        components = report.mean_component_ms()
        assert format_table(
            ["component", "ms"], [[k, v] for k, v in components.items()]
        ) in out
        assert "quantization step: 2.5 ms" in out

    def test_offsets_move_the_uplink_delays(self, skewed, capsys):
        raw = _section(self._analyze(capsys, str(skewed)),
                       "one-way delay (ms) per path segment:")
        synced = _section(self._analyze(capsys, str(skewed), "--synchronize"),
                          "one-way delay (ms) per path segment:")
        # p50 column: the 6 ms-fast sender clock shrank raw uplink delays,
        # the 3 ms-slow receiver clock shrank the downstream ones.
        uplink = float(synced["rtp_sender_core"][1]) - float(
            raw["rtp_sender_core"][1])
        downstream = float(synced["rtp_core_receiver"][1]) - float(
            raw["rtp_core_receiver"][1])
        assert uplink == pytest.approx(6.0, abs=1.5)
        assert downstream == pytest.approx(3.0, abs=1.5)
