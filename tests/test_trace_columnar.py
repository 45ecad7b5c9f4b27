"""The columnar trace codec: byte-identity, lazy views, payload transport.

The contract under test is strict: a row trace encoded with
:func:`encode_payload` and decoded with :func:`trace_from_payload` must give
(a) record-equal row views, (b) the same pinned JSONL and CSV bytes
through :func:`save_trace` and :func:`export_csv`, (c) column readers equal
to field reads on the rows, and (d) the same metadata.  Golden hashes
compare whole files, so a single float formatting or key-order divergence
fails loudly.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SyncResult, synchronize_trace
from repro.net.topology import PathConfig
from repro.run import CallSpec, ScenarioConfig, run_session
from repro.trace import (
    Trace,
    encode_payload,
    export_csv,
    load_trace,
    save_trace,
)
from repro.trace.bus import CHANNEL_FIELDS
from repro.trace.columnar import (
    CHANNEL_SCHEMAS,
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


def _run(config):
    return run_session(config).trace


def _round_trip(trace):
    return trace_from_payload(encode_payload(trace))


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Golden files of real sessions
# ---------------------------------------------------------------------------
#: sha256 of the save_trace file of each 1 s session, written before the
#: JSONL writer lost its reflective row renderer (which these files matched
#: byte for byte), so the codec-only writer is held to the same bytes.
GOLDEN_JSONL = {
    ("5g", 7): "d49d329843015dd14c1b6630bd666e543338b8b6fdcb968806d00ba165bc0c0c",
    ("5g", 11): "95fc68f28957cfa78ed7f88cfe4612ded3f3d29625615348c7d7ea7cbb473765",
    ("5g", 23): "c58e3f0d0c98086140ca9288858c1377c5e91c4e26c96f137574723950ed5c5c",
    ("emulated", 7): "ed5bcc10f22f9c40491b7a65ed93886c45a507d91e81e408519bb5e7a7124fea",
    ("emulated", 11): "28699b70b9aed9d6215184a9cbf0b4ac400fb206dc546bb1ae2d05bfb60333be",
    ("emulated", 23): "c460d49ff98dca674cbd6ba11adee3f58093944eb5304b988d6badb6bd5901c8",
}

#: The same for a two-call cell (seed 7), per access network.
GOLDEN_TWO_CALL_JSONL = {
    "5g": "fbafec4ba4396f81045f455109b6794e079ec6ddcef3740fe7eafad92035db08",
    "emulated": "dd0dab95638e7656fb08ab699eb263c66399f2f833137659f3036543b5e47635",
}

#: A time-synced session with a sender clock offset: covers the ``sync``
#: family and a ``meta`` line with nested metadata.
GOLDEN_SYNC_JSONL = "8758b7f45eb4ecc3b9b0317de63426d76f740758edf69e5b28e5835c1e5e3a16"

#: The same session after ``synchronize_trace``: every sender stamp is in
#: the core's clock and the ``meta`` line records the estimated offsets.
GOLDEN_SYNCHRONIZED_JSONL = (
    "678d919fa3f3621327a2ddc96c33c8f949947b604ba14dd7af5f8f8d6408d829"
)

#: sha256 of each export_csv file of ``ScenarioConfig(seed=7, duration_s=1.0,
#: record_grants=True)``, written by the same earlier row renderer.
GOLDEN_CSV = {
    "frames": "987dd7de59fbd87227edfc3b0c9045b37ca301a3ecda5e95170649d831bea605",
    "grants": "71ef4761f2fac99917d7d2f99d969fcfa09318ad7a39a56962360bec98f6f93a",
    "packets": "49518d87fabecda93410cae33e45c42790196f9785d861ff37c7065be9bf8986",
    "probes": "74c06c54bd1c242b9621b03c0fd4ae9f89d8a0e778c0e38fcbb42d6e8d8bceee",
    "transport_blocks": "85dd207b03e505f8c41408b8b792abfcbc1eb98b2af89c5b2f4d38471af9b5a5",
}


def _saved_sha256(trace, path):
    save_trace(trace, path)
    return _sha256(path)


class TestGoldenByteIdentity:
    """A row trace and its decoded payload both save to the pinned bytes."""

    @pytest.mark.parametrize("seed", [7, 11, 23])
    @pytest.mark.parametrize("access", ["5g", "emulated"])
    def test_family_order_file_is_byte_identical(self, tmp_path, seed, access):
        config = ScenarioConfig(seed=seed, access=access, duration_s=1.0)
        mem = _run(config)
        want = GOLDEN_JSONL[(access, seed)]
        assert _saved_sha256(mem, tmp_path / "mem.jsonl") == want
        assert _saved_sha256(_round_trip(mem), tmp_path / "col.jsonl") == want

    @pytest.mark.parametrize("access", ["5g", "emulated"])
    def test_two_call_cell_stays_identical(self, tmp_path, access):
        config = ScenarioConfig(
            seed=7, access=access, duration_s=1.0,
            calls=(CallSpec(call_id=0), CallSpec(call_id=1)),
        )
        mem = _run(config)
        col = _round_trip(mem)
        want = GOLDEN_TWO_CALL_JSONL[access]
        assert _saved_sha256(mem, tmp_path / "mem.jsonl") == want
        assert _saved_sha256(col, tmp_path / "col.jsonl") == want
        # Per-call views share the same attribution logic as row traces.
        assert col.call_ids() == mem.call_ids() == [0, 1]
        for call_id in (0, 1):
            sub_mem = mem.for_call(call_id)
            sub_col = col.for_call(call_id)
            for family in FAMILIES:
                assert list(getattr(sub_col, family)) == list(
                    getattr(sub_mem, family)
                )

    def test_time_synced_file_is_pinned(self, tmp_path):
        mem = _run(ScenarioConfig(
            seed=7, duration_s=1.0, time_sync=True,
            path=PathConfig(clock_offsets_us={"sender": 6_000}),
        ))
        assert mem.sync_exchanges
        assert _saved_sha256(mem, tmp_path / "mem.jsonl") == GOLDEN_SYNC_JSONL
        assert (
            _saved_sha256(_round_trip(mem), tmp_path / "col.jsonl")
            == GOLDEN_SYNC_JSONL
        )

    def test_synchronized_file_is_pinned(self, tmp_path):
        mem = _run(ScenarioConfig(
            seed=7, duration_s=1.0, time_sync=True,
            path=PathConfig(clock_offsets_us={"sender": 6_000}),
        ))
        for name, trace in (("mem", mem), ("col", _round_trip(mem))):
            synced = synchronize_trace(trace)
            assert (
                _saved_sha256(synced, tmp_path / f"{name}-synced.jsonl")
                == GOLDEN_SYNCHRONIZED_JSONL
            ), name
            # The input still saves to the unsynchronized bytes.
            assert (
                _saved_sha256(trace, tmp_path / f"{name}.jsonl")
                == GOLDEN_SYNC_JSONL
            ), name

    def test_csv_files_are_pinned(self, tmp_path):
        mem = _run(ScenarioConfig(seed=7, duration_s=1.0, record_grants=True))
        for name, trace in (("mem", mem), ("col", _round_trip(mem))):
            written = export_csv(trace, tmp_path / name)
            assert {attr: _sha256(path) for attr, path in written.items()} == (
                GOLDEN_CSV
            ), name

    def test_save_returns_record_line_count(self, tmp_path):
        mem = _run(ScenarioConfig(seed=7, duration_s=1.0))
        path = tmp_path / "t.jsonl"
        count = save_trace(mem, path)
        assert count == sum(len(getattr(mem, family)) for family in FAMILIES)
        assert len(path.read_text().splitlines()) == count + 1  # + meta line

    def test_metadata_that_is_not_json_raises_before_writing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(ValueError, match="metadata"):
            save_trace(Trace(metadata={"clock_offsets_us": {1: 5}}), path)
        assert not path.exists()

    def test_rows_equal_in_memory_records(self):
        mem = _run(ScenarioConfig(seed=11, duration_s=1.0))
        col = _round_trip(mem)
        for family in FAMILIES:
            assert list(getattr(col, family)) == list(getattr(mem, family))

    def test_written_file_loads_back(self, tmp_path):
        col = _round_trip(_run(ScenarioConfig(seed=7, duration_s=1.0)))
        path = tmp_path / "t.jsonl"
        save_trace(col, path)
        loaded = load_trace(path)
        for family in FAMILIES:
            assert list(getattr(loaded, family)) == list(getattr(col, family))


# ---------------------------------------------------------------------------
# Randomized equivalence (property test)
# ---------------------------------------------------------------------------
_call_ids = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


@st.composite
def _row_trace(draw):
    """A randomized row trace.

    Mixes records across channels, optional nested structures, call-id
    tagging, and JSON-safe metadata.
    """
    n = draw(st.integers(min_value=1, max_value=25))
    trace = Trace(metadata=draw(st.dictionaries(
        st.sampled_from(["seed", "access", "clock_offsets_us"]),
        st.one_of(
            st.integers(), st.text(max_size=4),
            st.floats(allow_nan=False),
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
        ),
    )))
    for i in range(n):
        kind = draw(st.sampled_from(["packet", "tb", "frame", "probe"]))
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
        getattr(trace, CHANNEL_FIELDS[kind]).append(record)
    return trace


@settings(max_examples=40, deadline=None)
@given(mem=_row_trace())
def test_columnar_rows_equal_in_memory_for_random_sessions(mem):
    col = _round_trip(mem)
    assert repr(col.metadata) == repr(mem.metadata)
    _assert_column_readers_match(col, mem)
    for family in FAMILIES:
        assert list(getattr(col, family)) == list(getattr(mem, family))


@settings(max_examples=40, deadline=None)
@given(mem=_row_trace())
def test_saved_file_loads_back_for_random_sessions(tmp_path_factory, mem):
    path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
    save_trace(mem, path)
    loaded = load_trace(path)
    assert repr(loaded.metadata) == repr(mem.metadata)
    for family in FAMILIES:
        assert list(getattr(loaded, family)) == list(getattr(mem, family))


_offsets = st.dictionaries(
    st.sampled_from(["sender", "core", "sfu", "receiver"]),
    st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    max_size=4,
)


def _public_outputs(trace, directory):
    """Every serialized form of ``trace``: JSONL, CSV files and payload."""
    directory.mkdir()
    save_trace(trace, directory / "t.jsonl")
    csvs = export_csv(trace, directory / "csv")
    return (
        (directory / "t.jsonl").read_bytes(),
        {attr: path.read_bytes() for attr, path in csvs.items()},
        encode_payload(trace),
    )


@settings(max_examples=40, deadline=None)
@given(mem=_row_trace(), offsets=_offsets)
def test_synchronize_agrees_on_row_and_decoded_traces(
    tmp_path_factory, mem, offsets
):
    sync = SyncResult(offsets_us=offsets)
    col = _round_trip(mem)
    before = encode_payload(col)
    tmp = tmp_path_factory.mktemp("sync")
    assert _public_outputs(synchronize_trace(mem, sync), tmp / "mem") == (
        _public_outputs(synchronize_trace(col, sync), tmp / "col")
    )
    assert encode_payload(col) == before == encode_payload(mem)


def _scalar_fields(channel):
    """Fields of ``channel`` that ``ChannelView.column`` decodes."""
    scalar = ("int", "optint", "float", "optfloat", "bool", "str")
    return [
        name
        for name, kind in CHANNEL_SCHEMAS[channel].items()
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
        mem = _run(ScenarioConfig(seed=23, duration_s=1.0))
        payload = encode_payload(mem)
        rebuilt = trace_from_payload(payload)
        assert isinstance(rebuilt, ColumnarTrace)
        assert rebuilt.metadata == mem.metadata
        for family in FAMILIES:
            assert list(getattr(rebuilt, family)) == list(getattr(mem, family))
        # A decoded trace encodes back to the same bytes.
        assert encode_payload(rebuilt) == payload

    def test_metadata_round_trips_with_clock_offsets(self):
        offsets = {"sender": 6_000, "core": -1_500}
        mem = _run(ScenarioConfig(
            seed=3, duration_s=0.3, time_sync=True,
            path=PathConfig(clock_offsets_us=dict(offsets)),
        ))
        assert mem.metadata["clock_offsets_us"] == offsets
        rebuilt = _round_trip(mem)
        assert repr(rebuilt.metadata) == repr(mem.metadata)

    @pytest.mark.parametrize("metadata", [
        {"calls": (0, 1)},
        {"clock_offsets_us": {1: 5}},
        {"access": MediaKind.VIDEO},
        {"seed": object()},
    ], ids=["tuple", "int-key", "enum", "object"])
    def test_metadata_that_is_not_json_raises_at_encode(self, metadata):
        with pytest.raises(ValueError, match="metadata"):
            encode_payload(Trace(metadata=metadata))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            trace_from_payload(b"not-a-payload")

    def test_athc1_payload_rejected(self):
        # The previous layout (pickled metadata) under its own magic.
        payload = encode_payload(Trace())
        old = b"ATHC1\n" + payload[len(b"ATHC2\n"):]
        with pytest.raises(ValueError, match="not a columnar trace payload"):
            trace_from_payload(old)


# ---------------------------------------------------------------------------
# Lazy views
# ---------------------------------------------------------------------------
class TestChannelView:
    def _trace(self, n=5):
        records = [ProbeRecord(probe_id=i, sent_us=i * 10) for i in range(n)]
        return _round_trip(Trace(probes=list(records))), records

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


class TestColumnReaders:
    def test_captures_at_reads_each_tap(self):
        packets = []
        for i, taps in enumerate([("sender", "core"), ("core", "sender"), (), ("receiver",)]):
            packet = PacketRecord(packet_id=i, flow_id="v", kind=MediaKind.VIDEO,
                                  size_bytes=100)
            for k, tap in enumerate(taps):
                packet.captures[tap] = 1_000 * i + k
            packets.append(packet)
        view = _round_trip(Trace(packets=packets)).packets
        assert view.captures_at("sender") == [0, 1_001, None, None]
        assert view.captures_at("core") == [1, 1_000, None, None]
        assert view.captures_at("receiver") == [None, None, None, 3_000]
        assert view.captures_at("sfu") == [None] * 4

    def test_readers_survive_the_payload_round_trip(self):
        mem = _run(ScenarioConfig(seed=23, duration_s=1.0))
        rebuilt = _round_trip(mem)
        _assert_column_readers_match(rebuilt, mem)
        assert all(store._cache == {} for store in rebuilt.stores.values())


# ---------------------------------------------------------------------------
# Streaming replay compatibility
# ---------------------------------------------------------------------------
def test_replay_trace_accepts_columnar_trace():
    from repro.core.streaming import replay_trace
    from repro.core.streaming.operators import TbPacketCorrelator
    from repro.run import MONITORED_UE_ID

    mem = _run(ScenarioConfig(seed=7, duration_s=1.0))
    col = _round_trip(mem)
    mem_result = replay_trace(mem, [TbPacketCorrelator(ue_id=MONITORED_UE_ID)])
    col_result = replay_trace(col, [TbPacketCorrelator(ue_id=MONITORED_UE_ID)])
    assert mem_result["correlation"].matches == col_result["correlation"].matches
