"""Tests for trace record types."""

from repro.trace import (
    CapturePoint,
    FrameRecord,
    MediaKind,
    PacketRecord,
    ProbeRecord,
    RanPacketTelemetry,
    RtpInfo,
    TbKind,
    Trace,
    TransportBlockRecord,
)
from repro.trace.schema import new_packet_id


def _packet(pid=1, kind=MediaKind.VIDEO):
    return PacketRecord(packet_id=pid, flow_id="v", kind=kind, size_bytes=1_000)


def test_new_packet_ids_are_unique():
    ids = {new_packet_id() for _ in range(100)}
    assert len(ids) == 100


def test_capture_roundtrip():
    p = _packet()
    p.set_capture(CapturePoint.SENDER, 1_000)
    assert p.capture_at(CapturePoint.SENDER) == 1_000
    assert p.capture_at(CapturePoint.CORE) is None


def test_capture_keys_are_plain_strings():
    """Members and their values address one capture; keys stay plain str."""
    p = _packet()
    p.set_capture(CapturePoint.SENDER, 1_000)
    p.set_capture("core", 6_500)
    assert [type(k) for k in p.captures] == [str, str]
    assert p.captures == {"sender": 1_000, "core": 6_500}
    assert p.capture_at("sender") == 1_000
    assert p.one_way_delay_us("sender", CapturePoint.CORE) == 5_500


def test_one_way_delay():
    p = _packet()
    p.set_capture(CapturePoint.SENDER, 1_000)
    p.set_capture(CapturePoint.CORE, 6_500)
    assert p.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE) == 5_500


def test_one_way_delay_missing_tap_is_none():
    p = _packet()
    p.set_capture(CapturePoint.SENDER, 1_000)
    assert p.one_way_delay_us(CapturePoint.SENDER, CapturePoint.CORE) is None


def test_ran_telemetry_total():
    t = RanPacketTelemetry(
        enqueue_us=0, queue_wait_us=3_000, sched_wait_us=1_500, harq_delay_us=10_000
    )
    assert t.ran_induced_us() == 14_500


def test_tb_empty_and_retx_flags():
    tb = TransportBlockRecord(
        tb_id=1, ue_id=1, slot_us=0, kind=TbKind.PROACTIVE, size_bits=16_000
    )
    assert tb.is_empty
    assert not tb.is_retx
    tb.used_bits = 8_000
    tb.harq_rounds = 2
    assert not tb.is_empty
    assert tb.is_retx


def test_probe_owd():
    assert ProbeRecord(probe_id=1, sent_us=10, received_us=30).owd_us() == 20
    assert ProbeRecord(probe_id=2, sent_us=10).owd_us() is None


def test_trace_filters_and_indexes():
    trace = Trace()
    trace.packets.append(_packet(1, MediaKind.VIDEO))
    trace.packets.append(_packet(2, MediaKind.AUDIO))
    trace.frames.append(
        FrameRecord(frame_id=5, stream="video", capture_us=0,
                    encode_done_us=0, size_bytes=100)
    )
    trace.frames.append(
        FrameRecord(frame_id=6, stream="audio", capture_us=0,
                    encode_done_us=0, size_bytes=10)
    )
    assert [p.packet_id for p in trace.packets_of_kind(MediaKind.VIDEO)] == [1]
    assert [f.frame_id for f in trace.frames_of_stream("audio")] == [6]
    assert trace.packet_index()[2].kind == MediaKind.AUDIO
    assert trace.frame_index()[5].stream == "video"


def test_rtp_info_fields():
    info = RtpInfo(ssrc=7, seq=1, timestamp=90_000, frame_id=3, layer_id=2,
                   marker=True)
    assert info.marker and info.layer_id == 2
