"""Trace persistence: JSON-Lines round-trip and CSV export.

The JSONL format writes one record per line with a ``"type"`` tag, preceded
by a single ``"meta"`` line, so traces can be streamed and concatenated.  CSV
export flattens one record family per file for spreadsheet/pandas analysis.
Both writers render records only through the columnar codec: each channel's
:class:`~repro.trace.columnar.ChannelStore` (a decoded trace's own, or a row
trace's records transposed into one) and its ``json_rows``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Tuple, Union

from .bus import CHANNEL_FIELDS, RECORD_CLASSES
from .columnar import channel_stores, check_metadata
from .schema import (
    MediaKind,
    PacketRecord,
    RanPacketTelemetry,
    RtpInfo,
    TbKind,
    Trace,
    TransportBlockRecord,
)


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed."""


def _packet_from_dict(data: dict) -> PacketRecord:
    rtp = RtpInfo(**data["rtp"]) if data.get("rtp") else None
    ran = RanPacketTelemetry(**data["ran"]) if data.get("ran") else None
    return PacketRecord(
        packet_id=data["packet_id"],
        flow_id=data["flow_id"],
        kind=MediaKind(data["kind"]),
        size_bytes=data["size_bytes"],
        rtp=rtp,
        captures=dict(data.get("captures", {})),
        ran=ran,
        dropped=data.get("dropped", False),
        call_id=data.get("call_id"),
    )


def _tb_from_dict(data: dict) -> TransportBlockRecord:
    data = dict(data)
    data["kind"] = TbKind(data["kind"])
    return TransportBlockRecord(**data)


def _record_from_dict(tag: str, data: dict) -> object:
    if tag == "packet":
        return _packet_from_dict(data)
    if tag == "tb":
        return _tb_from_dict(data)
    return RECORD_CLASSES[tag](**data)


#: Rows per ``write()`` in :func:`save_trace`.
JSONL_BATCH_ROWS = 1024


def encode_jsonl_batch(rows: Iterable[dict]) -> str:
    """Encode a batch of JSON-able row dicts as one JSONL string.

    One call produces the concatenated lines for the whole batch, so the
    writer issues a single ``write()`` per batch instead of one per record.
    Each line is plain ``json.dumps`` output.
    """
    lines = list(map(json.dumps, rows))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def save_trace(trace: Trace, path: Union[str, Path]) -> int:
    """Write ``trace`` to ``path`` in the tagged JSONL format.

    One ``meta`` line, then each channel's records in ``CHANNEL_FIELDS``
    order, rendered by :meth:`~repro.trace.columnar.ChannelStore.json_rows`
    and written :data:`JSONL_BATCH_ROWS` lines at a time.  Raises
    :class:`ValueError`, before the file is opened, when the metadata would
    not survive a JSON round trip.  Returns the record-line count.
    """
    check_metadata(trace.metadata)
    written = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "meta", **trace.metadata}) + "\n")
        for channel, store in channel_stores(trace):
            for start in range(0, store.rows, JSONL_BATCH_ROWS):
                stop = min(start + JSONL_BATCH_ROWS, store.rows)
                rows = store.json_rows(start, stop, type_tag=channel)
                fh.write(encode_jsonl_batch(rows))
            written += store.rows
    return written


def iter_trace_records(
    path: Union[str, Path],
) -> Iterator[Tuple[str, object]]:
    """Lazily yield ``(tag, record)`` pairs from a tagged-JSONL trace file.

    One line is parsed at a time, so readers never materialize the whole
    file — this is what the streaming analysis path
    (:mod:`repro.core.streaming`) and ``athena-repro analyze`` iterate.
    ``tag`` is a channel name from :data:`repro.trace.bus.CHANNELS`, except
    for ``"meta"`` lines, which yield their raw metadata ``dict``.  A line
    that does not parse into a record raises :class:`TraceFormatError`
    naming ``path`` and the line number.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                data = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{line_no}: invalid JSON") from exc
            if not isinstance(data, dict):
                raise TraceFormatError(f"{path}:{line_no}: not a JSON object")
            tag = data.pop("type", None)
            if tag is None:
                raise TraceFormatError(f"{path}:{line_no}: missing 'type' tag")
            if tag == "meta":
                yield "meta", data
                continue
            if not isinstance(tag, str) or tag not in CHANNEL_FIELDS:
                raise TraceFormatError(
                    f"{path}:{line_no}: unknown record type: {tag!r}"
                )
            try:
                record = _record_from_dict(tag, data)
            except (TypeError, KeyError, ValueError) as exc:
                raise TraceFormatError(
                    f"{path}:{line_no}: malformed {tag!r} record: {exc!r}"
                ) from exc
            yield tag, record


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    trace = Trace()
    for tag, record in iter_trace_records(path):
        if tag == "meta":
            trace.metadata.update(record)
        else:
            getattr(trace, CHANNEL_FIELDS[tag]).append(record)
    return trace


def export_csv(trace: Trace, directory: Union[str, Path]) -> Dict[str, Path]:
    """Flatten each record family of ``trace`` into one CSV under ``directory``.

    Returns a map from record family to the written path.  Rows come from
    the same :meth:`~repro.trace.columnar.ChannelStore.json_rows` as the
    JSONL lines; nested fields are JSON-encoded in a single column.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for channel, store in channel_stores(trace):
        if not store.rows:
            continue
        attr = CHANNEL_FIELDS[channel]
        out_path = directory / f"{attr}.csv"
        rows = store.json_rows(0, store.rows)
        with out_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                flat = {
                    k: json.dumps(v) if isinstance(v, (dict, list)) else v
                    for k, v in row.items()
                }
                writer.writerow(flat)
        written[attr] = out_path
    return written
