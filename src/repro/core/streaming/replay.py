"""Replays: feeding recorded traces through the streaming operators.

The batch entry points in :mod:`repro.core` are implemented on top of
:func:`replay_trace` — one pass over the stored records in family order
with no watermark (``lateness_us=None``), so every time-ordered operator
drains at the end exactly as a full sort would, and results equal the
historical batch computation bit for bit.

:func:`replay_file` does the same from a JSONL file via
:func:`repro.trace.io.iter_trace_records`, one parsed record resident at a
time — this is what ``athena-repro analyze`` runs, with a *finite*
lateness.  Operator state stays O(watermark window) on time-interleaved
files, whose lines follow event time across channels as a capture tool
writes them.  Files written by :func:`~repro.trace.io.save_trace` are
grouped by family: the result is still correct, but per-channel
watermarks cannot advance until the last family arrives, so state is held
until then.

``analyze --synchronize`` streams the file twice: a first
:func:`replay_file` runs :class:`~repro.core.streaming.operators.SyncOffsetOperator`
over the ``sync`` records, and the second passes that result as ``sync``,
so each packet is aligned to the core's clock
(:func:`~repro.core.sync_pipeline.aligned_packet`) as it is read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ...sim.units import TimeUs, ms
from ...trace.bus import CHANNEL_FIELDS
from ...trace.io import iter_trace_records
from ...trace.schema import Trace
from ..sync_pipeline import SyncResult, aligned_packet
from .base import StreamOperator
from .tap import AnalysisTap


def replay_trace(
    trace: Trace, operators: Sequence[StreamOperator]
) -> Dict[str, object]:
    """Feed an in-memory trace through ``operators``; return their results.

    Records are fed family-by-family in stored order with no watermark, so
    replay order equals trace order within every channel — the invariant
    the batch-equivalence guarantees in :mod:`.operators` rest on.

    ``trace`` may be a plain dataclass-backed :class:`Trace` or a
    :class:`~repro.trace.columnar.ColumnarTrace`: the record families are
    only iterated, which the columnar backend's lazy
    :class:`~repro.trace.columnar.ChannelView` rows serve by materializing
    one record at a time (and caching it, so repeated replays over the
    same trace share objects with other consumers).
    """
    tap = AnalysisTap(operators, lateness_us=None)
    for attr in CHANNEL_FIELDS.values():
        for record in getattr(trace, attr):
            tap.emit(record)
    tap.close()
    return tap.results


def replay_file(
    path: Union[str, Path],
    operators: Sequence[StreamOperator],
    lateness_us: Optional[TimeUs] = ms(2000.0),
    sync: Optional[SyncResult] = None,
) -> Dict[str, object]:
    """Stream a JSONL trace file through ``operators`` without loading it.

    Returns ``{operator name: result}`` plus the file's metadata under
    ``"metadata"``.  Pass ``lateness_us=None`` to defer all time-ordered
    processing to the end (exact batch semantics at O(trace) memory).
    With ``sync``, every packet goes through
    :func:`~repro.core.sync_pipeline.aligned_packet` before the operators
    see it.
    """
    tap = AnalysisTap(operators, lateness_us=lateness_us)
    metadata: Dict[str, object] = {}
    for tag, record in iter_trace_records(path):
        if tag == "meta":
            assert isinstance(record, dict)
            metadata.update(record)
            continue
        if sync is not None and tag == "packet":
            record = aligned_packet(record, sync)
        tap.emit(record)
    tap.close()
    results = dict(tap.results)
    results["metadata"] = metadata
    return results
