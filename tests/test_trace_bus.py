"""The telemetry-sink layer: the default in-memory sink and its channels."""

from __future__ import annotations

from repro.app.session import run_session
from repro.experiments.common import idle_cell_scenario
from repro.trace.bus import CHANNEL_FIELDS, CHANNELS
from repro.trace.schema import Trace


def _scenario(**overrides):
    defaults = dict(duration_s=2.0, seed=13, record_grants=True,
                    time_sync=True)
    defaults.update(overrides)
    return idle_cell_scenario(**defaults)


class TestSinkEquivalence:
    def test_in_memory_sink_is_the_default_trace(self):
        result = run_session(_scenario())
        assert result.topology.sink.result_trace() is result.trace
        assert len(result.trace.packets) > 50


def test_channels_cover_every_trace_family():
    trace = Trace()
    assert set(CHANNELS) == set(CHANNEL_FIELDS)
    for field_name in CHANNEL_FIELDS.values():
        assert getattr(trace, field_name) == []
