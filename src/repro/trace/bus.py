"""Telemetry sinks: where simulator components hand their records.

Components do not hold a :class:`~repro.trace.schema.Trace` and append to
its lists; they emit each record on a named channel to a
:class:`TraceSink`.  That keeps record *emission* apart from what receives
it.  A session records into :class:`InMemorySink`, which keeps every record
in a :class:`Trace` in emission order.  Live analysis wraps that sink in
:class:`~repro.core.streaming.tap.AnalysisTap`, which forwards every call
and also feeds the streaming operators.  Finished traces travel between
processes and onto disk through the columnar codec
(:mod:`repro.trace.columnar`), and to files through :mod:`repro.trace.io`.
Per-call views of a multi-call cell come from
:meth:`~repro.trace.schema.Trace.for_call`.

Channels mirror the record families (and the JSONL ``"type"`` tags):
``packet``, ``tb``, ``grant``, ``frame``, ``probe``, ``sync``.

Mutable records (packets collect capture stamps along the path; frames get
their render accounting at playout; probes their echo) are emitted with
``final=False`` and *finalized* by the component that applies the last
mutation.  The tap delivers a record to its operators at finalization, the
earliest point an analysis may safely read it.
"""

from __future__ import annotations

from typing import Dict, Optional

from .schema import Trace

#: Emission channels, in the order families appear in a saved trace.
CHANNELS = ("packet", "tb", "grant", "frame", "probe", "sync")

#: Channel -> Trace attribute holding that family's records.
CHANNEL_FIELDS: Dict[str, str] = {
    "packet": "packets",
    "tb": "transport_blocks",
    "grant": "grants",
    "frame": "frames",
    "probe": "probes",
    "sync": "sync_exchanges",
}


class TraceSink:
    """Receiver of telemetry records emitted by simulator components.

    Subclasses implement :meth:`emit`; the finalization and lifecycle hooks
    default to no-ops.
    """

    def emit(self, channel: str, record: object, *, final: bool = True) -> None:
        """Accept one record on ``channel``.

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

    def emit(self, channel: str, record: object, *, final: bool = True) -> None:
        getattr(self.trace, CHANNEL_FIELDS[channel]).append(record)

    def set_metadata(self, metadata: Dict[str, object]) -> None:
        self.trace.metadata.update(metadata)

    def result_trace(self) -> Optional[Trace]:
        return self.trace
