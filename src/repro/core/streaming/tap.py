"""AnalysisTap: the bus-side entry into the streaming operators.

The tap is a :class:`~repro.trace.bus.TraceSink` that wraps the session's
real sink (an :class:`~repro.trace.bus.InMemorySink`), forwards every
call unchanged, and additionally delivers each record to the registered
:class:`~repro.core.streaming.base.StreamOperator`\\ s **at finalization
time** — the moment the record stops mutating, which is the earliest point
an analysis may safely read it.

Watermark semantics
-------------------
Each channel keeps a high-water mark of the *event time* of its finalized
records (packet → sender capture, tb → slot, frame → encode completion,
probe → send, sync → ``t1``).  An operator's watermark is the minimum of
the marks over the channels it subscribes to (channels that have not yet
produced a record are ignored) minus ``lateness_us``: records finalize out
of event-time order — a packet completes at the receiver tens of
milliseconds after its send — and the lateness bound is what lets the
time-ordered operators re-sort them exactly.  ``lateness_us=None`` never
advances the watermark; everything is released at :meth:`close` in strict
event order, which is the mode the batch facades replay under.

A watermark is re-issued only once it has moved ``advance_every_us`` past
the last one.  Operators with the same gating channels share a watermark,
so the tap tracks them as one *group* holding the mark its low must reach
next (``due_at``).  A record that raises a channel's mark queues just the
groups gated by that channel whose ``due_at`` it reaches; the next record
delivered to any operator advances the queued groups that are really due
and calls ``on_watermark`` on their operators in operator order.  Records
that raise no mark cost no watermark work at all.

Operator results are collected into :attr:`results` (keyed by operator
``name``) when the tap closes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...sim.units import TimeUs, ms
from ...trace.bus import CHANNEL_OF, CHANNELS, TraceSink
from ...trace.schema import (
    FrameRecord,
    GrantRecord,
    PacketRecord,
    ProbeRecord,
    SyncExchangeRecord,
    TransportBlockRecord,
)
from .base import StreamOperator


def record_event_time(channel: str, record: object) -> Optional[TimeUs]:
    """The sim-time instant a record's analysis key refers to.

    This is deliberately the *earliest* timestamp of each record family —
    the time the batch algorithms sort on — not the finalization time, so
    watermarks derived from it bound what the time-ordered heaps may still
    receive.
    """
    if channel == "packet":
        assert isinstance(record, PacketRecord)
        send = record.captures.get("sender")
        if send is not None:
            return send
        return record.ran.enqueue_us if record.ran is not None else None
    if channel == "tb":
        assert isinstance(record, TransportBlockRecord)
        return record.slot_us
    if channel == "grant":
        assert isinstance(record, GrantRecord)
        return record.issued_us
    if channel == "frame":
        assert isinstance(record, FrameRecord)
        return record.encode_done_us
    if channel == "probe":
        assert isinstance(record, ProbeRecord)
        return record.sent_us
    assert isinstance(record, SyncExchangeRecord)
    return record.t1


class AnalysisTap(TraceSink):
    """Fan-out sink feeding finalized records to streaming operators."""

    def __init__(
        self,
        operators: Sequence[StreamOperator],
        inner: Optional[TraceSink] = None,
        lateness_us: Optional[TimeUs] = ms(1000.0),
        advance_every_us: TimeUs = ms(50.0),
    ) -> None:
        names = [op.name for op in operators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate operator names: {names}")
        self.operators: List[StreamOperator] = list(operators)
        self.inner = inner
        self.lateness_us = lateness_us
        self.advance_every_us = advance_every_us
        self._subscribers: Dict[str, List[StreamOperator]] = {
            ch: [op for op in self.operators if ch in op.channels]
            for ch in CHANNELS
        }
        self._high: Dict[str, TimeUs] = {}
        # Watermark groups, keyed by gating-channel tuple: each operator's
        # group, the lowest mark each group must reach before its next
        # advance, the groups each channel's mark gates (none when the
        # watermark never advances), and the groups queued for a check.
        self._group_of: List[Tuple[str, ...]] = [
            op.watermark_channels or op.channels for op in self.operators
        ]
        self._due_at: Dict[Tuple[str, ...], TimeUs] = {
            group: (lateness_us or 0) + 1 for group in self._group_of
        }
        self._gated_by: Dict[str, List[Tuple[str, ...]]] = {
            ch: [g for g in self._due_at if ch in g]
            if lateness_us is not None
            else []
            for ch in CHANNELS
        }
        self._queued: Dict[Tuple[str, ...], None] = {}
        # Open (final=False) records awaiting finalization: id -> (channel,
        # record).  The record reference is kept so close() can deliver
        # whatever never finalized.
        self._open: Dict[int, tuple] = {}
        self.results: Dict[str, object] = {}
        self.closed = False

    # -- TraceSink protocol --------------------------------------------
    def emit(self, record: object, *, final: bool = True) -> None:
        channel = CHANNEL_OF[type(record)]
        if self.inner is not None:
            self.inner.emit(record, final=final)
        if final:
            self._deliver(channel, record)
        else:
            self._open[id(record)] = (channel, record)

    def finalize(self, record: object) -> None:
        if self.inner is not None:
            self.inner.finalize(record)
        entry = self._open.pop(id(record), None)
        if entry is not None:
            self._deliver(entry[0], record)

    def set_metadata(self, metadata: Dict[str, object]) -> None:
        if self.inner is not None:
            self.inner.set_metadata(metadata)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            # Records never finalized (frames unrendered when the run ends,
            # packets still in flight) are delivered now, in the order
            # they were emitted.
            pending = list(self._open.values())
            self._open.clear()
            for channel, record in pending:
                self._deliver(channel, record)
            for op in self.operators:
                self.results[op.name] = op.finish()
        if self.inner is not None:
            self.inner.close()

    def result_trace(self):
        return self.inner.result_trace() if self.inner is not None else None

    # -- delivery ------------------------------------------------------
    def _deliver(self, channel: str, record: object) -> None:
        event_us = record_event_time(channel, record)
        if event_us is not None and event_us > self._high.get(channel, 0):
            self._high[channel] = event_us
            due_at = self._due_at
            for group in self._gated_by[channel]:
                if event_us >= due_at[group]:
                    self._queued[group] = None
        subscribers = self._subscribers[channel]
        if not subscribers:
            return
        for op in subscribers:
            op.on_record(channel, record)
        if self._queued:
            self._advance_queued()

    def _advance_queued(self) -> None:
        """Advance every queued group whose low mark reached its ``due_at``.

        A gating channel that has produced nothing yet pins its group's
        watermark: we cannot know its first record's event time.  Operators
        exclude genuinely optional channels via ``watermark_channels``.
        """
        assert self.lateness_us is not None
        high = self._high
        watermarks: Dict[Tuple[str, ...], TimeUs] = {}
        for group in self._queued:
            if any(ch not in high for ch in group):
                continue
            low = min(high[ch] for ch in group)
            if low >= self._due_at[group]:
                self._due_at[group] = low + self.advance_every_us
                watermarks[group] = low - self.lateness_us
        self._queued.clear()
        if not watermarks:
            return
        for op, group in zip(self.operators, self._group_of):
            watermark = watermarks.get(group)
            if watermark is not None:
                op.on_watermark(watermark)
