"""The columnar trace backend: byte-identity, lazy views, payload transport.

The contract under test is strict: a :class:`ColumnarSink` fed the same
emission sequence as the row-based sinks must produce (a) record-equal
row views, (b) byte-identical JSONL through both the family-ordered batch
writer and the stream-ordered ``write_jsonl``, and (c) a flat payload that
round-trips without loss.  Golden hashes compare whole files, so a single
float formatting or key-order divergence fails loudly.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.run import CallSpec, ScenarioConfig, SessionBuilder
from repro.trace import (
    ColumnarSink,
    InMemorySink,
    StreamingJsonlSink,
    Trace,
    load_trace,
    save_trace,
    write_trace_jsonl,
)
from repro.trace.bus import CHANNEL_FIELDS
from repro.trace.columnar import (
    CHANNEL_SCHEMAS,
    TRANSPOSE_BATCH,
    ColumnarTrace,
    trace_from_payload,
)
from repro.trace.schema import (
    CapturePoint,
    FrameRecord,
    MediaKind,
    PacketRecord,
    ProbeRecord,
    RanPacketTelemetry,
    RtpInfo,
    TbKind,
    TransportBlockRecord,
)

FAMILIES = ("packets", "transport_blocks", "grants", "frames", "probes",
            "sync_exchanges")


def _run(config, sink):
    builder = SessionBuilder(config, sink=sink)
    builder.run()
    return sink.result_trace()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Golden byte-identity on real sessions
# ---------------------------------------------------------------------------
class TestGoldenByteIdentity:
    @pytest.mark.parametrize("seed", [7, 11, 23])
    @pytest.mark.parametrize("access", ["5g", "emulated"])
    def test_family_order_file_is_byte_identical(self, tmp_path, seed, access):
        config = ScenarioConfig(seed=seed, access=access, duration_s=1.0)
        mem_path = tmp_path / "mem.jsonl"
        col_path = tmp_path / "col.jsonl"
        save_trace(_run(config, InMemorySink(Trace())), mem_path)
        write_trace_jsonl(_run(config, ColumnarSink()), col_path)
        assert _sha256(mem_path) == _sha256(col_path)

    @pytest.mark.parametrize("access", ["5g", "emulated"])
    def test_stream_order_file_matches_streaming_sink(self, tmp_path, access):
        config = ScenarioConfig(seed=7, access=access, duration_s=1.0)
        stream_path = tmp_path / "stream.jsonl"
        col_path = tmp_path / "col.jsonl"
        _run(config, StreamingJsonlSink(stream_path))
        sink = ColumnarSink()
        _run(config, sink)
        sink.write_jsonl(col_path)
        assert _sha256(stream_path) == _sha256(col_path)

    @pytest.mark.parametrize("access", ["5g", "emulated"])
    def test_two_call_cell_stays_identical(self, tmp_path, access):
        config = ScenarioConfig(
            seed=7, access=access, duration_s=1.0,
            calls=(CallSpec(call_id=0), CallSpec(call_id=1)),
        )
        mem = _run(config, InMemorySink(Trace()))
        col = _run(config, ColumnarSink())
        mem_path = tmp_path / "mem.jsonl"
        col_path = tmp_path / "col.jsonl"
        save_trace(mem, mem_path)
        write_trace_jsonl(col, col_path)
        assert _sha256(mem_path) == _sha256(col_path)
        # Per-call views share the same attribution logic as row traces.
        assert col.call_ids() == mem.call_ids() == [0, 1]
        for call_id in (0, 1):
            sub_mem = mem.for_call(call_id)
            sub_col = col.for_call(call_id)
            for family in FAMILIES:
                assert list(getattr(sub_col, family)) == list(
                    getattr(sub_mem, family)
                )

    def test_rows_equal_in_memory_records(self, tmp_path):
        config = ScenarioConfig(seed=11, duration_s=1.0)
        mem = _run(config, InMemorySink(Trace()))
        col = _run(config, ColumnarSink())
        for family in FAMILIES:
            assert list(getattr(col, family)) == list(getattr(mem, family))

    def test_written_file_loads_back(self, tmp_path):
        config = ScenarioConfig(seed=7, duration_s=1.0)
        col = _run(config, ColumnarSink())
        path = tmp_path / "t.jsonl"
        write_trace_jsonl(col, path)
        loaded = load_trace(path)
        for family in FAMILIES:
            assert list(getattr(loaded, family)) == list(getattr(col, family))


# ---------------------------------------------------------------------------
# Randomized equivalence (property test)
# ---------------------------------------------------------------------------
_call_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


@st.composite
def _emission_plan(draw):
    """A randomized emission sequence: (channel, record, final) triples.

    Mixes immutable and mutable records across channels, optional nested
    structures, call-id tagging, and a randomized subset of finalize calls
    so some records stay open mid-session (flushed only at close).
    """
    n = draw(st.integers(min_value=1, max_value=25))
    plan = []
    for i in range(n):
        kind = draw(st.sampled_from(["packet", "tb", "frame", "probe"]))
        final = draw(st.booleans())
        if kind == "packet":
            rtp = None
            if draw(st.booleans()):
                rtp = RtpInfo(
                    ssrc=draw(st.integers(min_value=0, max_value=2**31)),
                    seq=i & 0xFFFF,
                    timestamp=i * 90,
                    frame_id=i // 3,
                    layer_id=draw(st.integers(min_value=0, max_value=2)),
                    marker=draw(st.booleans()),
                    frame_start=draw(st.booleans()),
                )
            ran = None
            if draw(st.booleans()):
                ran = RanPacketTelemetry(
                    enqueue_us=i * 1_000,
                    first_tb_us=draw(st.one_of(
                        st.none(), st.integers(min_value=0, max_value=10**6))),
                    queue_wait_us=draw(st.integers(min_value=0, max_value=9_999)),
                    tb_ids=draw(st.lists(
                        st.integers(min_value=0, max_value=999), max_size=3)),
                )
            captures = draw(st.dictionaries(
                st.sampled_from(["sender", "core", "sfu", "receiver"]),
                st.integers(min_value=0, max_value=10**7),
                max_size=4,
            ))
            record = PacketRecord(
                packet_id=i,
                flow_id=draw(st.sampled_from(["video", "audio", "probe"])),
                kind=draw(st.sampled_from(list(MediaKind))),
                size_bytes=draw(st.integers(min_value=0, max_value=1500)),
                rtp=rtp,
                captures=captures,
                ran=ran,
                dropped=draw(st.booleans()),
                call_id=draw(_call_ids),
            )
        elif kind == "tb":
            record = TransportBlockRecord(
                tb_id=i,
                ue_id=draw(st.integers(min_value=0, max_value=3)),
                slot_us=i * 500,
                kind=draw(st.sampled_from(list(TbKind))),
                size_bits=draw(st.integers(min_value=0, max_value=10**5)),
                packet_ids=draw(st.lists(
                    st.integers(min_value=0, max_value=99), max_size=4)),
                delivered_us=draw(st.one_of(
                    st.none(), st.integers(min_value=0, max_value=10**6))),
            )
        elif kind == "frame":
            record = FrameRecord(
                frame_id=i,
                stream=draw(st.sampled_from(["video", "audio"])),
                capture_us=i * 33_000,
                encode_done_us=i * 33_000 + 2_000,
                size_bytes=draw(st.integers(min_value=0, max_value=10**5)),
                target_fps=draw(st.sampled_from([0.0, 15.0, 30.0])),
                ssim=draw(st.one_of(
                    st.none(),
                    st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False))),
                stalled=draw(st.booleans()),
                call_id=draw(_call_ids),
            )
        else:
            record = ProbeRecord(
                probe_id=i,
                sent_us=i * 10_000,
                received_us=draw(st.one_of(
                    st.none(), st.integers(min_value=0, max_value=10**7))),
                call_id=draw(_call_ids),
            )
        plan.append((kind, record, final))
    finalize_mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return plan, finalize_mask


@settings(max_examples=40, deadline=None)
@given(data=_emission_plan())
def test_columnar_rows_equal_in_memory_for_random_sessions(data):
    import copy

    plan, finalize_mask = data
    mem = InMemorySink(Trace())
    col = ColumnarSink()
    # Each sink gets its own record objects (the columnar sink may retain
    # staged references), mutated identically.
    col_plan = [(c, copy.deepcopy(r), f) for c, r, f in plan]
    for (channel, record, final), (_, col_record, _) in zip(plan, col_plan):
        mem.emit(channel, record, final=final)
        col.emit(channel, col_record, final=final)
    for selected, (_, record, final), (_, col_record, _) in zip(
        finalize_mask, plan, col_plan
    ):
        if selected and not final:
            mem.finalize(record)
            col.finalize(col_record)
    # Mid-session: open (non-final) records must already be visible.
    mid_mem = mem.result_trace()
    mid_col = col.result_trace()
    _assert_column_readers_match(mid_col, mid_mem)
    for family in FAMILIES:
        assert list(getattr(mid_col, family)) == list(getattr(mid_mem, family))
    mem.close()
    col.close()
    _assert_column_readers_match(mid_col, mid_mem)
    for family in FAMILIES:
        assert list(getattr(mid_col, family)) == list(getattr(mid_mem, family))


def _scalar_fields(channel):
    """Fields of ``channel`` that ``ChannelView.column`` decodes."""
    scalar = ("int", "optint", "float", "optfloat", "bool", "str")
    return [
        name
        for name, kind in CHANNEL_SCHEMAS[channel][1].items()
        if kind in scalar or (isinstance(kind, tuple) and kind[0] == "enum")
    ]


def _typed(values):
    # Pair each value with its type: 0 == False and MediaKind.VIDEO ==
    # "video", so plain equality would hide a mis-decoded column.
    return [(type(v), v) for v in values]


def _assert_column_readers_match(col, mem):
    """Column readers on ``col`` equal field reads on ``mem``'s records."""
    for channel, family in CHANNEL_FIELDS.items():
        records = getattr(mem, family)
        view = getattr(col, family)
        for name in _scalar_fields(channel):
            want = [getattr(record, name) for record in records]
            assert _typed(view.column(name)) == _typed(want), (family, name)
    for tap in CapturePoint:
        want = [packet.capture_at(tap) for packet in mem.packets]
        assert col.packets.captures_at(tap.value) == want, tap


# ---------------------------------------------------------------------------
# Payload transport
# ---------------------------------------------------------------------------
class TestPayloadRoundTrip:
    def test_session_round_trips_through_payload(self):
        config = ScenarioConfig(seed=23, duration_s=1.0)
        col = _run(config, ColumnarSink())
        rebuilt = trace_from_payload(col.to_payload())
        assert isinstance(rebuilt, ColumnarTrace)
        assert rebuilt.metadata == col.metadata
        for family in FAMILIES:
            assert list(getattr(rebuilt, family)) == list(getattr(col, family))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            trace_from_payload(b"not-a-payload")


# ---------------------------------------------------------------------------
# Lazy views
# ---------------------------------------------------------------------------
class TestChannelView:
    def _trace(self, n=5):
        sink = ColumnarSink()
        records = [ProbeRecord(probe_id=i, sent_us=i * 10) for i in range(n)]
        for record in records:
            sink.emit("probe", record)
        sink.close()
        return sink.result_trace(), records

    def test_len_index_slice_and_negative(self):
        trace, records = self._trace()
        probes = trace.probes
        assert len(probes) == 5
        assert probes[0] == records[0]
        assert probes[-1] == records[-1]
        assert probes[1:3] == records[1:3]
        assert probes[::2] == records[::2]
        with pytest.raises(IndexError):
            probes[5]

    def test_iteration_and_equality(self):
        trace, records = self._trace()
        assert list(trace.probes) == records
        assert trace.probes == records
        assert trace.probes != records[:-1]
        assert len(trace.packets) == 0

    def test_materialized_rows_are_cached(self):
        trace, _ = self._trace()
        assert trace.probes[2] is trace.probes[2]

    def test_staged_rows_return_the_live_object(self):
        sink = ColumnarSink()
        record = ProbeRecord(probe_id=9, sent_us=0)
        sink.emit("probe", record, final=False)
        trace = sink.result_trace()
        assert trace.probes[0] is record  # still staged: same object
        record.received_us = 777  # mutation visible pre-finalize
        assert trace.probes[0].received_us == 777
        sink.finalize(record)
        sink.close()
        assert trace.probes[0].received_us == 777


class TestColumnReaders:
    def test_columns_span_transposed_and_staged_rows(self):
        sink = ColumnarSink()
        records = [
            ProbeRecord(probe_id=i, sent_us=i * 10,
                        received_us=None if i % 3 else i * 10 + 5)
            for i in range(TRANSPOSE_BATCH + 40)
        ]
        for record in records:
            sink.emit("probe", record)
        live = ProbeRecord(probe_id=-1, sent_us=0)
        sink.emit("probe", live, final=False)
        trace = sink.result_trace()
        store = trace.stores["probe"]
        assert 0 < store._base < store.rows  # both halves are present
        live.received_us = 123  # a staged row reads its live state
        records.append(live)
        for name in ("probe_id", "sent_us", "received_us", "call_id"):
            assert trace.probes.column(name) == [getattr(r, name) for r in records]
        assert store._cache == {}  # no row was materialized

    def test_captures_at_reads_each_tap(self):
        sink = ColumnarSink()
        packets = []
        for i, taps in enumerate([("sender", "core"), ("core", "sender"), (), ("receiver",)]):
            packet = PacketRecord(packet_id=i, flow_id="v", kind=MediaKind.VIDEO,
                                  size_bytes=100)
            for k, tap in enumerate(taps):
                packet.captures[tap] = 1_000 * i + k
            packets.append(packet)
            sink.emit("packet", packet)
        sink.close()
        view = sink.result_trace().packets
        assert view.captures_at("sender") == [0, 1_001, None, None]
        assert view.captures_at("core") == [1, 1_000, None, None]
        assert view.captures_at("receiver") == [None, None, None, 3_000]
        assert view.captures_at("sfu") == [None] * 4

    def test_readers_survive_the_payload_round_trip(self):
        col = _run(ScenarioConfig(seed=23, duration_s=1.0), ColumnarSink())
        rebuilt = trace_from_payload(col.to_payload())
        mem = _run(ScenarioConfig(seed=23, duration_s=1.0), InMemorySink(Trace()))
        _assert_column_readers_match(rebuilt, mem)
        assert all(store._cache == {} for store in rebuilt.stores.values())


# ---------------------------------------------------------------------------
# Streaming replay compatibility
# ---------------------------------------------------------------------------
def test_replay_trace_accepts_columnar_trace():
    from repro.core.streaming import replay_trace
    from repro.core.streaming.operators import TbPacketCorrelator
    from repro.run import MONITORED_UE_ID

    config = ScenarioConfig(seed=7, duration_s=1.0)
    mem = _run(config, InMemorySink(Trace()))
    col = _run(config, ColumnarSink())
    mem_result = replay_trace(mem, [TbPacketCorrelator(ue_id=MONITORED_UE_ID)])
    col_result = replay_trace(col, [TbPacketCorrelator(ue_id=MONITORED_UE_ID)])
    assert mem_result["correlation"].matches == col_result["correlation"].matches
