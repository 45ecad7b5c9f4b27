"""Tests for trace persistence (JSONL round-trip, CSV export)."""

import csv
import json
import re

import pytest

from repro.trace import (
    CapturePoint,
    FrameRecord,
    GrantRecord,
    MediaKind,
    PacketRecord,
    ProbeRecord,
    RanPacketTelemetry,
    RtpInfo,
    TbKind,
    Trace,
    TraceFormatError,
    TransportBlockRecord,
    export_csv,
    load_trace,
    save_trace,
)


def _full_trace() -> Trace:
    trace = Trace(metadata={"access": "5g", "seed": 3})
    packet = PacketRecord(
        packet_id=1,
        flow_id="video",
        kind=MediaKind.VIDEO,
        size_bytes=1_148,
        rtp=RtpInfo(ssrc=9, seq=0, timestamp=0, frame_id=1, layer_id=2,
                    marker=True),
        ran=RanPacketTelemetry(enqueue_us=100, queue_wait_us=2_000,
                               tb_ids=[4, 5]),
    )
    packet.set_capture(CapturePoint.SENDER, 100)
    packet.set_capture(CapturePoint.CORE, 5_100)
    trace.packets.append(packet)
    trace.transport_blocks.append(
        TransportBlockRecord(
            tb_id=4, ue_id=1, slot_us=2_000, kind=TbKind.PROACTIVE,
            size_bits=16_000, used_bits=9_184, packet_ids=[1],
            harq_rounds=1, failed_slot_us=[2_000], delivered_us=12_500,
        )
    )
    trace.grants.append(
        GrantRecord(grant_id=1, ue_id=1, kind=TbKind.REQUESTED,
                    issued_us=0, usable_slot_us=12_000, size_bits=40_000,
                    bsr_us=2_000, bsr_bytes=4_000)
    )
    trace.frames.append(
        FrameRecord(frame_id=1, stream="video", capture_us=0,
                    encode_done_us=0, size_bytes=4_000, svc_layer=2,
                    target_fps=28.0, packet_ids=[1], ssim=0.87)
    )
    trace.probes.append(ProbeRecord(probe_id=1, sent_us=0, received_us=20_000))
    return trace


def test_roundtrip_preserves_everything(tmp_path):
    trace = _full_trace()
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.metadata["access"] == "5g"
    assert loaded.metadata["seed"] == 3
    p = loaded.packets[0]
    assert p.kind == MediaKind.VIDEO
    assert p.rtp.layer_id == 2 and p.rtp.marker
    assert p.ran.tb_ids == [4, 5]
    assert p.capture_at(CapturePoint.CORE) == 5_100
    tb = loaded.transport_blocks[0]
    assert tb.kind == TbKind.PROACTIVE and tb.harq_rounds == 1
    assert tb.failed_slot_us == [2_000]
    assert loaded.grants[0].bsr_bytes == 4_000
    assert loaded.frames[0].ssim == 0.87
    assert loaded.probes[0].owd_us() == 20_000


def test_roundtrip_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_trace(Trace(), path)
    loaded = load_trace(path)
    assert loaded.packets == [] and loaded.frames == []


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_load_rejects_missing_type(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"packet_id": 1}) + "\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_load_rejects_unknown_type(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"type": "mystery"}) + "\n")
    with pytest.raises(TraceFormatError):
        load_trace(path)


@pytest.mark.parametrize(
    "line",
    [
        {"type": "grant", "bogus": 1},  # TypeError
        {"type": "packet", "packet_id": 1},  # KeyError: 'flow_id'
        {"type": "tb", "kind": "nope"},  # ValueError: not a TbKind
        [1, 2],  # TypeError: list.pop takes no default
        {"type": ["tb"]},  # TypeError: unhashable tag
    ],
    ids=["unknown-field", "missing-field", "bad-enum", "not-an-object",
         "unhashable-type"],
)
def test_load_rejects_malformed_record(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"type": "meta"}) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}:2: "):
        load_trace(path)


def test_load_skips_blank_lines(tmp_path):
    trace = _full_trace()
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    content = path.read_text().replace("\n", "\n\n")
    path.write_text(content)
    assert len(load_trace(path).packets) == 1


def test_export_csv_writes_one_file_per_family(tmp_path):
    written = export_csv(_full_trace(), tmp_path)
    assert set(written) == {
        "packets", "transport_blocks", "grants", "frames", "probes"
    }
    header = written["packets"].read_text().splitlines()[0]
    assert "packet_id" in header and "captures" in header


def test_export_csv_skips_empty_families(tmp_path):
    trace = Trace()
    trace.probes.append(ProbeRecord(probe_id=1, sent_us=0))
    written = export_csv(trace, tmp_path)
    assert set(written) == {"probes"}


def test_export_csv_family_with_mixed_call_ids(tmp_path):
    """A family whose first row has no call id still exports every row."""
    trace = Trace()
    trace.probes.append(ProbeRecord(probe_id=1, sent_us=0, received_us=900))
    trace.probes.append(
        ProbeRecord(probe_id=2, sent_us=1_000, received_us=1_800, call_id=1)
    )
    written = export_csv(trace, tmp_path)
    with written["probes"].open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["probe_id"] for row in rows] == ["1", "2"]
    assert [row["call_id"] for row in rows] == ["", "1"]
    assert rows[1]["received_us"] == "1800"
