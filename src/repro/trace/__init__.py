"""Trace schema, the telemetry sink, the payload codec and persistence."""

from .bus import CHANNELS, InMemorySink, TraceSink
from .columnar import ColumnarTrace, encode_payload, trace_from_payload
from .ids import IdSpace, use_id_space
from .io import (
    TraceFormatError,
    export_csv,
    iter_trace_records,
    load_trace,
    save_trace,
)
from .schema import (
    CapturePoint,
    FrameRecord,
    GrantRecord,
    MediaKind,
    PacketRecord,
    ProbeRecord,
    RanPacketTelemetry,
    RtpInfo,
    SyncExchangeRecord,
    TbKind,
    Trace,
    TransportBlockRecord,
)

__all__ = [
    "CHANNELS",
    "CapturePoint",
    "ColumnarTrace",
    "FrameRecord",
    "GrantRecord",
    "IdSpace",
    "InMemorySink",
    "MediaKind",
    "PacketRecord",
    "ProbeRecord",
    "RanPacketTelemetry",
    "RtpInfo",
    "SyncExchangeRecord",
    "TbKind",
    "Trace",
    "TraceSink",
    "TransportBlockRecord",
    "TraceFormatError",
    "encode_payload",
    "export_csv",
    "iter_trace_records",
    "load_trace",
    "save_trace",
    "trace_from_payload",
    "use_id_space",
]
