"""Wired links, WAN segments, and the tc-style emulated bottleneck.

Three conduits:

* :class:`DelayLink` — fixed propagation plus optional small jitter; used
  for the WAN segments, which the paper finds "low and stable" (Fig 3);
* :class:`ProcessingNode` — models middlebox processing time with a heavy
  tail, used for the SFU's application-layer jitter (the secondary jitter
  source of Fig 3);
* :class:`EmulatedLink` — the Fig 7 wired baseline: a token-bucket shaper
  at the cell's granted capacity behind a fixed 15 ms latency, i.e. what
  the authors built with Linux ``tc``.

All conduits preserve FIFO ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.engine import Simulator
from ..sim.units import TimeUs, US_PER_SEC, ms
from ..trace.schema import PacketRecord

Arrival = Callable[[PacketRecord, TimeUs], None]


class DelayLink:
    """Fixed-delay link with optional lognormal jitter and random loss."""

    def __init__(
        self,
        sim: Simulator,
        base_delay_us: TimeUs,
        jitter_std_us: float = 0.0,
        loss_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if base_delay_us < 0:
            raise ValueError("base delay must be >= 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        if (jitter_std_us > 0 or loss_rate > 0) and rng is None:
            raise ValueError("rng required when jitter or loss is enabled")
        self._sim = sim
        self.base_delay_us = base_delay_us
        self.jitter_std_us = jitter_std_us
        self.loss_rate = loss_rate
        self._rng = rng
        self._last_arrival: TimeUs = 0
        self.packets_sent = 0
        self.packets_lost = 0

    def send(self, packet: PacketRecord, on_arrival: Arrival) -> None:
        """Carry ``packet`` across the link, preserving FIFO order."""
        self.packets_sent += 1
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.packets_lost += 1
            packet.dropped = True
            return
        delay_us = self.base_delay_us
        if self.jitter_std_us > 0:
            delay_us += abs(self._rng.normal(0.0, self.jitter_std_us))
        arrival = max(self._sim.now + int(delay_us), self._last_arrival)
        self._last_arrival = arrival
        self._sim.post(arrival, lambda: on_arrival(packet, arrival))


class ProcessingNode:
    """Middlebox service time: a small base plus an occasional heavy tail.

    With probability ``tail_prob`` the processing draw comes from an
    exponential with mean ``tail_mean_us`` — modelling the SFU's bursts of
    application-layer processing delay.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        base_us: TimeUs = 800,
        jitter_std_us: float = 300.0,
        tail_prob: float = 0.04,
        tail_mean_us: float = 6_000.0,
    ) -> None:
        self._sim = sim
        self._rng = rng
        self.base_us = base_us
        self.jitter_std_us = jitter_std_us
        self.tail_prob = tail_prob
        self.tail_mean_us = tail_mean_us
        self._last_departure: TimeUs = 0

    def process(self, packet: PacketRecord, on_done: Arrival) -> None:
        """Apply one service-time draw, preserving FIFO order."""
        delay_us = self.base_us + abs(self._rng.normal(0.0, self.jitter_std_us))
        if self._rng.random() < self.tail_prob:
            delay_us += self._rng.exponential(self.tail_mean_us)
        departure = max(self._sim.now + int(delay_us), self._last_departure)
        self._last_departure = departure
        self._sim.post(departure, lambda: on_done(packet, departure))


class EmulatedLink:
    """The paper's tc baseline: rate shaping + fixed latency (Fig 7).

    A FIFO byte queue drained at a configurable rate — either constant or a
    replayed capacity series from a RAN run — followed by a fixed latency.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_kbps: float,
        latency_us: TimeUs = ms(15.0),
        queue_limit_bytes: int = 300_000,
        capacity_series: Optional[Sequence[Tuple[TimeUs, float]]] = None,
    ) -> None:
        if rate_kbps <= 0 and not capacity_series:
            raise ValueError("need a positive rate or a capacity series")
        self._sim = sim
        self.rate_kbps = rate_kbps
        self.latency_us = latency_us
        self.queue_limit_bytes = queue_limit_bytes
        self._series: List[Tuple[TimeUs, float]] = (
            sorted(capacity_series) if capacity_series else []
        )
        self._queue: Deque[Tuple[PacketRecord, Arrival]] = deque()
        self._queued_bytes = 0
        self._busy = False
        self.packets_sent = 0
        self.packets_dropped = 0

    def _rate_at(self, now: TimeUs) -> float:
        if not self._series:
            return self.rate_kbps
        rate_kbps = self._series[0][1]
        for start, kbps in self._series:
            if now >= start:
                rate_kbps = kbps
            else:
                break
        return max(rate_kbps, 1.0)

    def send(self, packet: PacketRecord, on_arrival: Arrival) -> None:
        """Enqueue ``packet`` for shaped transmission (tail-drop on overflow)."""
        if self._queued_bytes + packet.size_bytes > self.queue_limit_bytes:
            self.packets_dropped += 1
            packet.dropped = True
            return
        self._queue.append((packet, on_arrival))
        self._queued_bytes += packet.size_bytes
        self.packets_sent += 1
        if not self._busy:
            self._serve_next()

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet, on_arrival = self._queue[0]
        rate_kbps = self._rate_at(self._sim.now)
        tx_time_us = int(packet.size_bytes * 8 / (rate_kbps * 1_000) * US_PER_SEC)

        def finish() -> None:
            self._queue.popleft()
            self._queued_bytes -= packet.size_bytes
            arrival = self._sim.now + self.latency_us
            self._sim.post(arrival, lambda: on_arrival(packet, arrival))
            self._serve_next()

        self._sim.post(self._sim.now + max(tx_time_us, 1), finish)

    @property
    def queued_bytes(self) -> int:
        """Bytes currently waiting in the shaper."""
        return self._queued_bytes
