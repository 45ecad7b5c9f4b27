"""Per-rule tests for athena-lint: each fixture trips its rule at known lines."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_source, main
from repro.analysis.rules.trace_append import TRACE_RECORD_FIELDS
from repro.analysis.rules.unit_suffix import needs_unit_suffix
from repro.trace.bus import CHANNEL_FIELDS

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

# fixture file -> rule id -> expected (line, ...) locations
EXPECTED = {
    "bad_ath001.py": ("ATH001", (10, 11, 12)),
    "bad_ath002.py": ("ATH002", (10, 11, 12)),
    "bad_ath003.py": ("ATH003", (4, 5, 7, 8, 13, 16)),
    "bad_ath004.py": ("ATH004", (7, 9)),
    "bad_ath005.py": ("ATH005", (6, 11, 11)),
    "bad_ath006.py": ("ATH006", (7, 9, 15, 16)),
    "bad_ath007.py": ("ATH007", (5, 6, 14)),
    "bad_ath008.py": ("ATH008", (6, 8, 14)),
    "bad_ath009.py": ("ATH009", (5, 9, 14)),
    "bad_ath010.py": ("ATH010", (10, 14, 19)),
}


@pytest.mark.parametrize("fixture,rule_id,lines", [
    (name, rule_id, lines) for name, (rule_id, lines) in EXPECTED.items()
])
def test_fixture_trips_rule_at_expected_lines(fixture, rule_id, lines):
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    results = lint_source(source, fixture, rule_ids=[rule_id])
    found = [(f.rule_id, f.line) for f in results]
    assert found == [(rule_id, line) for line in lines]
    for finding in results:
        assert finding.path == fixture
        assert finding.message


@pytest.mark.parametrize("fixture", sorted(EXPECTED))
def test_fixture_fails_cli_with_location(fixture, capsys):
    exit_code = main([str(FIXTURES / fixture), "--root", str(FIXTURES)])
    assert exit_code == 1
    out = capsys.readouterr().out
    rule_id, lines = EXPECTED[fixture]
    assert f"{fixture}:{lines[0]}:" in out
    assert rule_id in out


class TestWallClock:
    def test_aliased_import_resolved(self):
        src = "import time as clk\nnow = clk.monotonic()\n"
        results = lint_source(src, rule_ids=["ATH001"])
        assert [f.rule_id for f in results] == ["ATH001"]

    def test_simulator_now_is_fine(self):
        src = "def f(sim):\n    return sim.now\n"
        assert lint_source(src, rule_ids=["ATH001"]) == []


class TestGlobalRng:
    def test_injected_generator_is_fine(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n"
            "    return rng.normal()\n"
        )
        assert lint_source(src, rule_ids=["ATH002"]) == []

    def test_numpy_alias_resolved(self):
        src = "import numpy as xp\nx = xp.random.default_rng(1)\n"
        results = lint_source(src, rule_ids=["ATH002"])
        assert [f.rule_id for f in results] == ["ATH002"]

    def test_exempt_path_from_options(self):
        src = "import numpy as np\nr = np.random.default_rng(7)\n"
        options = {"ATH002": {"exempt": ["sim/random.py"]}}
        assert lint_source(
            src, "src/repro/sim/random.py", rule_ids=["ATH002"],
            rule_options=options,
        ) == []


class TestUnitSuffix:
    @pytest.mark.parametrize("name", [
        "delay", "queue_delay", "bitrate", "capacity", "frame_interval",
        "timeout", "max_latency",
    ])
    def test_flags_unitless_quantities(self, name):
        assert needs_unit_suffix(name)

    @pytest.mark.parametrize("name", [
        "delay_us", "delay_ms_p95", "rate_kbps", "frame_rate_fps",
        "loss_rate", "miss_rate", "jitter_buffer_beta", "capacity_series",
        "owd_window", "size_bytes", "frame_id", "rtp_ticks",
    ])
    def test_accepts_suffixed_or_dimensionless(self, name):
        assert not needs_unit_suffix(name)

    def test_bool_params_and_their_attrs_exempt(self):
        src = (
            "class A:\n"
            "    def __init__(self, mask_ran_delay: bool = False):\n"
            "        self.mask_ran_delay = mask_ran_delay\n"
        )
        assert lint_source(src, rule_ids=["ATH003"]) == []

    def test_constructor_valued_attr_exempt(self):
        src = (
            "class A:\n"
            "    def __init__(self, sim):\n"
            "        self.jitter_buffer = AdaptiveJitterBuffer(sim)\n"
        )
        assert lint_source(src, rule_ids=["ATH003"]) == []

    def test_unit_conversion_calls_are_fine(self):
        src = "from repro.sim.units import ms\ndeadline_us = now_us + ms(2.5)\n"
        assert lint_source(src, rule_ids=["ATH003"]) == []


class TestFloatEq:
    def test_integer_comparison_is_fine(self):
        src = "hit = slot_us == frame_us\n"
        assert lint_source(src, rule_ids=["ATH004"]) == []

    def test_enum_comparison_is_fine(self):
        src = "n = sum(1 for s in signals if s == BandwidthSignal.UNDERUSE)\n"
        assert lint_source(src, rule_ids=["ATH004"]) == []

    def test_float_literal_equality_flagged(self):
        src = "hit = render_delay_ms == 16.6\n"
        results = lint_source(src, rule_ids=["ATH004"])
        assert [f.rule_id for f in results] == ["ATH004"]


class TestHandlers:
    def test_zero_arg_lambda_is_fine(self):
        src = "sim.at(t_us, lambda: sink(packet, t_us))\n"
        assert lint_source(src, rule_ids=["ATH006"]) == []

    def test_default_binding_lambda_is_fine(self):
        src = "sim.at(t_us, lambda p=packet, t=t_us: sink(p, t))\n"
        assert lint_source(src, rule_ids=["ATH006"]) == []

    def test_non_sim_receiver_ignored(self):
        src = "table.at(3, row())\n"
        assert lint_source(src, rule_ids=["ATH006"]) == []


class TestLoopCapture:
    def test_default_bound_loop_lambda_is_fine(self):
        src = (
            "for p in packets:\n"
            "    sim.at(t_us, lambda pkt=p: sink(pkt))\n"
        )
        assert lint_source(src, rule_ids=["ATH008"]) == []

    def test_captured_loop_var_flagged(self):
        src = (
            "for p in packets:\n"
            "    sim.at(t_us, lambda: sink(p))\n"
        )
        results = lint_source(src, rule_ids=["ATH008"])
        assert [f.rule_id for f in results] == ["ATH008"]
        assert "`p`" in results[0].message

    def test_outer_loop_capture_in_nested_loop_flagged(self):
        src = (
            "for ue in ues:\n"
            "    for t_us in times:\n"
            "        sim.every(t_us, lambda: poll(ue))\n"
        )
        assert len(lint_source(src, rule_ids=["ATH008"])) == 1

    def test_lambda_outside_loop_ignored(self):
        src = "sim.at(t_us, lambda: sink(p))\n"
        assert lint_source(src, rule_ids=["ATH008"]) == []

    def test_non_sim_receiver_ignored(self):
        src = (
            "for p in packets:\n"
            "    table.at(3, lambda: row(p))\n"
        )
        assert lint_source(src, rule_ids=["ATH008"]) == []

    def test_tuple_target_unpacking_tracked(self):
        src = (
            "for i, p in enumerate(packets):\n"
            "    sim.call_later(10, lambda: sink(i, p))\n"
        )
        results = lint_source(src, rule_ids=["ATH008"])
        assert len(results) == 1
        assert "`i`, `p`" in results[0].message


class TestTraceAppendRule:
    def test_direct_append_flagged(self):
        src = "trace.packets.append(p)\n"
        assert len(lint_source(src, rule_ids=["ATH007"])) == 1

    def test_nested_holder_flagged(self):
        src = "self.topology.trace.frames.append(f)\n"
        assert len(lint_source(src, rule_ids=["ATH007"])) == 1

    def test_extend_flagged(self):
        src = "trace.grants.extend(ran.scheduler.grant_log)\n"
        assert len(lint_source(src, rule_ids=["ATH007"])) == 1

    def test_other_lists_ok(self):
        src = "self.mode_series.append((now, mode))\n"
        assert lint_source(src, rule_ids=["ATH007"]) == []

    def test_sink_emit_ok(self):
        src = "sink.emit(p, final=False)\n"
        assert lint_source(src, rule_ids=["ATH007"]) == []

    def test_record_fields_are_the_channel_table_fields(self):
        # athena-lint imports nothing from the simulator, so the rule keeps
        # its own copy of the Trace record-list names.
        assert TRACE_RECORD_FIELDS == frozenset(CHANNEL_FIELDS.values())

    def test_trace_package_exempt_via_options(self):
        src = "self.trace.packets.append(record)\n"
        options = {"ATH007": {"exempt": ["repro/trace/*.py"]}}
        assert lint_source(src, "repro/trace/bus.py", rule_ids=["ATH007"],
                           rule_options=options) == []


class TestCallScopeRule:
    def test_bare_id_dictcomp_flagged(self):
        src = "index = {p.packet_id: p for p in trace.packets}\n"
        results = lint_source(src, rule_ids=["ATH009"])
        assert len(results) == 1
        assert "packet_id" in results[0].message

    def test_dict_generator_call_flagged(self):
        src = "index = dict((f.frame_id, f) for f in trace.frames)\n"
        assert len(lint_source(src, rule_ids=["ATH009"])) == 1

    def test_unscoped_tuple_key_flagged(self):
        src = "index = {(p.flow_id, p.packet_id): p for p in trace.packets}\n"
        assert len(lint_source(src, rule_ids=["ATH009"])) == 1

    def test_call_scoped_tuple_key_ok(self):
        src = "index = {(p.call_id, p.packet_id): p for p in trace.packets}\n"
        assert lint_source(src, rule_ids=["ATH009"]) == []

    def test_ue_scoped_tuple_key_ok(self):
        src = "index = {(tb.ue_id, tb.tb_id): tb for tb in trace.transport_blocks}\n"
        assert lint_source(src, rule_ids=["ATH009"]) == []

    def test_non_id_keys_ok(self):
        src = "index = {p.flow_id: p for p in trace.packets}\n"
        assert lint_source(src, rule_ids=["ATH009"]) == []

    def test_trace_package_exempt_via_options(self):
        src = "index = {p.packet_id: p for p in self.packets}\n"
        options = {"ATH009": {"exempt": ["repro/trace/*.py"]}}
        assert lint_source(src, "repro/trace/schema.py", rule_ids=["ATH009"],
                           rule_options=options) == []


class TestPerRecordSerializationRule:
    def test_dumps_in_for_loop_flagged(self):
        src = (
            "import json\n"
            "for r in rows:\n"
            "    out.write(json.dumps(r))\n"
        )
        results = lint_source(src, rule_ids=["ATH010"])
        assert [f.rule_id for f in results] == ["ATH010"]

    def test_asdict_in_comprehension_flagged(self):
        src = (
            "import dataclasses\n"
            "payload = [dataclasses.asdict(r) for r in rows]\n"
        )
        assert len(lint_source(src, rule_ids=["ATH010"])) == 1

    def test_aliased_import_resolved(self):
        src = (
            "from json import dumps as enc\n"
            "while queue:\n"
            "    fh.write(enc(queue.pop()))\n"
        )
        assert len(lint_source(src, rule_ids=["ATH010"])) == 1

    def test_single_dumps_outside_loop_ok(self):
        src = "import json\nblob = json.dumps(header)\n"
        assert lint_source(src, rule_ids=["ATH010"]) == []

    def test_batch_encode_in_loop_ok(self):
        src = (
            "for start in range(0, n, step):\n"
            "    fh.write(encode_jsonl_batch(rows[start:start + step]))\n"
        )
        assert lint_source(src, rule_ids=["ATH010"]) == []

    def test_other_dumps_callables_ok(self):
        src = "import pickle\nfor r in rows:\n    pickle.dumps(r)\n"
        assert lint_source(src, rule_ids=["ATH010"]) == []

    def test_batch_encoder_exempt_via_options(self):
        src = "import json\nlines = [json.dumps(r) for r in rows]\n"
        options = {"ATH010": {"exempt": ["repro/trace/io.py"]}}
        assert lint_source(src, "repro/trace/io.py", rule_ids=["ATH010"],
                           rule_options=options) == []


class TestSuppression:
    def test_line_suppression(self):
        src = "import time\nnow = time.time()  # athena-lint: disable=ATH001\n"
        assert lint_source(src, rule_ids=["ATH001"]) == []

    def test_line_suppression_wrong_rule_keeps_finding(self):
        src = "import time\nnow = time.time()  # athena-lint: disable=ATH005\n"
        assert len(lint_source(src, rule_ids=["ATH001"])) == 1

    def test_disable_all(self):
        src = "import time\nnow = time.time()  # athena-lint: disable=all\n"
        assert lint_source(src) == []

    def test_file_wide_suppression(self):
        src = (
            "# athena-lint: disable-file=ATH001\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n"
        )
        assert lint_source(src, rule_ids=["ATH001"]) == []

    def test_comma_separated_ids(self):
        src = (
            "import time, random\n"
            "x = time.time() + random.random()"
            "  # athena-lint: disable=ATH001, ATH002\n"
        )
        assert lint_source(src, rule_ids=["ATH001", "ATH002"]) == []


def test_syntax_error_reported_as_finding():
    results = lint_source("def broken(:\n", "oops.py")
    assert len(results) == 1
    finding = results[0]
    assert finding.rule_id == "ATH000"
    assert finding.path == "oops.py"
    assert "parse" in finding.message
