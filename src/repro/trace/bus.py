"""Telemetry sinks: where simulator components hand their records.

Components do not hold a :class:`~repro.trace.schema.Trace` and append to
its lists; they hand each record to a :class:`TraceSink` with
``sink.emit(record)``.  That keeps record *emission* apart from what
receives it.  A session records into :class:`InMemorySink`, which keeps
every record in a :class:`Trace` in emission order.  Live analysis wraps
that sink in :class:`~repro.core.streaming.tap.AnalysisTap`, which forwards
every call and also feeds the streaming operators.  Finished traces travel
between processes and onto disk through the columnar codec
(:mod:`repro.trace.columnar`), and to files through :mod:`repro.trace.io`.
Per-call views of a multi-call cell come from
:meth:`~repro.trace.schema.Trace.for_call`.

The record's class names its channel.  :data:`CHANNEL_TABLE` is the one
place that pairs each channel (also the JSONL ``"type"`` tag) with its
record class and its ``Trace`` attribute: ``packet``, ``tb``, ``grant``,
``frame``, ``probe``, ``sync``.  Emitting an instance of a class that is
not in the table raises ``KeyError``.

Mutable records (packets collect capture stamps along the path; frames get
their render accounting at playout; probes their echo) are emitted with
``final=False`` and *finalized* by the component that applies the last
mutation.  The tap delivers a record to its operators at finalization, the
earliest point an analysis may safely read it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .schema import (
    FrameRecord,
    GrantRecord,
    PacketRecord,
    ProbeRecord,
    SyncExchangeRecord,
    Trace,
    TransportBlockRecord,
)

#: Channel -> (record class, Trace attribute holding that family's
#: records), in the order families appear in a saved trace.
CHANNEL_TABLE: Dict[str, Tuple[type, str]] = {
    "packet": (PacketRecord, "packets"),
    "tb": (TransportBlockRecord, "transport_blocks"),
    "grant": (GrantRecord, "grants"),
    "frame": (FrameRecord, "frames"),
    "probe": (ProbeRecord, "probes"),
    "sync": (SyncExchangeRecord, "sync_exchanges"),
}

#: Emission channels, in saved-trace order.
CHANNELS = tuple(CHANNEL_TABLE)

#: Channel -> Trace attribute holding that family's records.
CHANNEL_FIELDS: Dict[str, str] = {
    channel: attr for channel, (_, attr) in CHANNEL_TABLE.items()
}

#: Channel -> record class, for the decoders.
RECORD_CLASSES: Dict[str, type] = {
    channel: cls for channel, (cls, _) in CHANNEL_TABLE.items()
}

#: Record class -> channel, for the sinks.
CHANNEL_OF: Dict[type, str] = {
    cls: channel for channel, (cls, _) in CHANNEL_TABLE.items()
}


class TraceSink:
    """Receiver of telemetry records emitted by simulator components.

    Subclasses implement :meth:`emit`; the finalization and lifecycle hooks
    default to no-ops.
    """

    def emit(self, record: object, *, final: bool = True) -> None:
        """Accept one record on the channel its class names.

        ``final=False`` marks a record that will still be mutated by the
        emitter; the matching :meth:`finalize` call (or :meth:`close`)
        signals that it has reached its terminal state.
        """
        raise NotImplementedError

    def finalize(self, record: object) -> None:
        """Signal that an earlier ``final=False`` record stopped mutating.

        Finalizing a record that was never emitted is a harmless no-op, so
        callers need not track whether recording was enabled.
        """

    def set_metadata(self, metadata: Dict[str, object]) -> None:
        """Merge session metadata (seed, scenario, clock offsets...)."""

    def close(self) -> None:
        """Flush any held records and release resources."""

    def result_trace(self) -> Optional[Trace]:
        """The in-memory :class:`Trace` this sink maintains, if any."""
        return None


class InMemorySink(TraceSink):
    """Default sink: collects every record into a :class:`Trace`."""

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self.trace = trace if trace is not None else Trace()

    def emit(self, record: object, *, final: bool = True) -> None:
        getattr(self.trace, CHANNEL_FIELDS[CHANNEL_OF[type(record)]]).append(record)

    def set_metadata(self, metadata: Dict[str, object]) -> None:
        self.trace.metadata.update(metadata)

    def result_trace(self) -> Optional[Trace]:
        return self.trace
