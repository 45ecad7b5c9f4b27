"""The telemetry-sink layer: the default in-memory sink and its channels."""

from __future__ import annotations

import typing

import pytest

from repro.app.session import run_session
from repro.core.streaming import AnalysisTap
from repro.experiments.common import idle_cell_scenario
from repro.trace.bus import CHANNEL_FIELDS, CHANNEL_TABLE, CHANNELS, InMemorySink
from repro.trace.schema import (
    FrameRecord,
    GrantRecord,
    MediaKind,
    PacketRecord,
    ProbeRecord,
    SyncExchangeRecord,
    TbKind,
    Trace,
    TransportBlockRecord,
)


def _scenario(**overrides):
    defaults = dict(duration_s=2.0, seed=13, record_grants=True,
                    time_sync=True)
    defaults.update(overrides)
    return idle_cell_scenario(**defaults)


def _one_record_per_channel():
    return {
        "packet": PacketRecord(packet_id=1, flow_id="video",
                               kind=MediaKind.VIDEO, size_bytes=1_000),
        "tb": TransportBlockRecord(tb_id=1, ue_id=1, slot_us=2_500,
                                   kind=TbKind.PROACTIVE, size_bits=800),
        "grant": GrantRecord(grant_id=1, ue_id=1, kind=TbKind.REQUESTED,
                             issued_us=0, usable_slot_us=10_000,
                             size_bits=8_000),
        "frame": FrameRecord(frame_id=1, stream="video", capture_us=0,
                             encode_done_us=0, size_bytes=4_000),
        "probe": ProbeRecord(probe_id=1, sent_us=0),
        "sync": SyncExchangeRecord(host="sender", t1=0, t2=1, t3=2, t4=3),
    }


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
    records = _one_record_per_channel()
    assert list(records) == list(CHANNELS)
    hints = typing.get_type_hints(Trace)
    for channel, record in records.items():
        assert CHANNEL_TABLE[channel][0] is type(record)
        assert hints[CHANNEL_FIELDS[channel]] == typing.List[type(record)]
        sink = InMemorySink()
        sink.emit(record)
        for other, field_name in CHANNEL_FIELDS.items():
            family = getattr(sink.trace, field_name)
            if other == channel:
                assert len(family) == 1 and family[0] is record
            else:
                assert family == [], (channel, other)


class _Unregistered:
    pass


class _PacketSubclass(PacketRecord):
    pass


@pytest.mark.parametrize(
    "record",
    [_Unregistered(),
     _PacketSubclass(packet_id=1, flow_id="video", kind=MediaKind.VIDEO,
                     size_bytes=1_000)],
    ids=["unrelated", "subclass"],
)
@pytest.mark.parametrize(
    "make_sink",
    [InMemorySink, lambda: AnalysisTap([], inner=InMemorySink())],
    ids=["in-memory", "tap"],
)
def test_unregistered_record_class_raises_key_error(make_sink, record):
    sink = make_sink()
    with pytest.raises(KeyError):
        sink.emit(record)
    trace = sink.result_trace()
    for field_name in CHANNEL_FIELDS.values():
        assert getattr(trace, field_name) == []
