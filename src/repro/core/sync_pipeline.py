"""Trace synchronization: from raw per-host clocks to one timeline.

Athena's step (2) — "precisely time-synchronize this data" — done offline:

1. estimate each capture host's clock offset against the core from the
   recorded two-way exchanges (minimum-RTT filtered, optionally with a
   linear drift fit);
2. copy the trace with every packet's capture timestamps in
   core-referenced time (:func:`synchronize_trace`), or align each packet
   as a file is streamed (:func:`aligned_packet`, used by
   ``athena-repro analyze --synchronize``).

Without this step, cross-host one-way delays absorb the clock offsets and
the per-segment attribution of Fig 3 is wrong; tests verify that analysis
results on a deliberately de-synchronized trace match the synchronized
ground truth after running this pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..trace.schema import CapturePoint, PacketRecord, Trace

_CORE = CapturePoint.CORE.value


@dataclass
class SyncResult:
    """Estimated per-host clock parameters (relative to the core clock)."""

    offsets_us: Dict[str, float] = field(default_factory=dict)
    drift_ppm: Dict[str, float] = field(default_factory=dict)
    exchanges_used: Dict[str, int] = field(default_factory=dict)

    def offset_for(self, point: str) -> float:
        """Offset of a host's clock vs the core (0 if unknown)."""
        return self.offsets_us.get(point, 0.0)


def estimate_host_offsets(trace: Trace, fit_drift: bool = False) -> SyncResult:
    """Estimate each capture host's clock offset from the trace's exchanges.

    The NTP convention in :class:`ProbeExchange` yields the *server's*
    (core's) offset relative to the client (host); we negate it so the
    result is "how far ahead the host's clock runs vs the core".

    Implemented as a replay over the incremental
    :class:`~repro.core.streaming.operators.SyncOffsetOperator`.
    """
    from .streaming.operators import SyncOffsetOperator
    from .streaming.replay import replay_trace

    op = SyncOffsetOperator(fit_drift=fit_drift)
    result = replay_trace(trace, [op])[op.name]
    assert isinstance(result, SyncResult)
    return result


def aligned_packet(packet: PacketRecord, sync: SyncResult) -> PacketRecord:
    """A copy of ``packet`` with its captures in the core's clock.

    Every non-core capture is shifted by the (negated) estimated offset of
    its host; ``packet`` itself is not touched.  This is the one definition
    of the clock correction: :func:`synchronize_trace` maps it over a
    trace, and :func:`~repro.core.streaming.replay.replay_file` applies it
    to each packet as it is read.
    """
    captures = {
        point: local if point == _CORE else int(local - sync.offset_for(point))
        for point, local in packet.captures.items()
    }
    return replace(packet, captures=captures)


def synchronize_trace(trace: Trace, sync: Optional[SyncResult] = None) -> Trace:
    """A new trace with every capture timestamp in the core's clock.

    Packets are copied through :func:`aligned_packet`; the other record
    families are already core-stamped (probes) or carry no capture stamps,
    and are carried over as they are.  The metadata is a copy that also
    records ``synchronized`` and the ``estimated_offsets_us`` applied.
    ``trace`` is left unchanged, whether it holds rows or decoded columns.
    """
    if sync is None:
        sync = estimate_host_offsets(trace)
    metadata = dict(trace.metadata)
    metadata["synchronized"] = True
    metadata["estimated_offsets_us"] = dict(sync.offsets_us)
    return Trace(
        metadata=metadata,
        packets=[aligned_packet(packet, sync) for packet in trace.packets],
        transport_blocks=list(trace.transport_blocks),
        grants=list(trace.grants),
        frames=list(trace.frames),
        probes=list(trace.probes),
        sync_exchanges=list(trace.sync_exchanges),
    )
