"""Trace persistence: JSON-Lines round-trip and CSV export.

The JSONL format writes one record per line with a ``"type"`` tag, preceded
by a single ``"meta"`` line, so traces can be streamed and concatenated.  CSV
export flattens one record family per file for spreadsheet/pandas analysis.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Tuple, Union

from .bus import CHANNEL_FIELDS, RECORD_CLASSES
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


def to_jsonable(value: object) -> object:
    """Convert a record (dataclass tree) into JSON-serializable builtins."""
    return _to_jsonable(value)


def _to_jsonable(value: object) -> object:
    if isinstance(value, (MediaKind, TbKind)):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # call_id is omitted when unset so single-call traces serialize
        # byte-identically to files written before the multi-call cell.
        return {
            f.name: _to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if not (f.name == "call_id" and getattr(value, f.name) is None)
        }
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_to_jsonable(v) for v in value]
    return value


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


#: Rows per batch in the chunked JSONL encoder.
JSONL_BATCH_ROWS = 1024


def encode_jsonl_batch(rows: Iterable[dict]) -> str:
    """Encode a batch of JSON-able row dicts as one JSONL string.

    One call produces the concatenated lines for the whole batch, so the
    writer issues a single ``write()`` per batch instead of one per record.
    Each line is encoded exactly as the per-record writer would
    (``json.dumps`` defaults), keeping batched output byte-identical to the
    historical record-at-a-time format.
    """
    lines = list(map(json.dumps, rows))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def write_trace_jsonl(
    trace: Trace,
    path: Union[str, Path],
    *,
    batch_rows: int = JSONL_BATCH_ROWS,
) -> int:
    """Write ``trace`` to ``path`` in the tagged JSONL format, batched.

    Output is byte-identical to the historical per-record writer (family
    order per ``CHANNEL_FIELDS``, one ``meta`` line first).  A
    :class:`~repro.trace.columnar.ColumnarTrace` takes the fast path —
    JSON-able rows are built straight from the column arrays without
    materializing record objects.  Returns the record-line count.
    """
    from .columnar import ColumnarTrace

    path = Path(path)
    written = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "meta", **_to_jsonable(trace.metadata)}) + "\n")
        for tag, attr in CHANNEL_FIELDS.items():
            if isinstance(trace, ColumnarTrace):
                store = trace.stores[tag]
                rows_total = store.rows

                def batch_rows_for(start: int, stop: int, _store=store, _tag=tag):
                    # json_rows puts "type" first in insertion order, which
                    # byte-identity with the per-record writer requires.
                    return _store.json_rows(start, stop, type_tag=_tag)

            else:
                records = getattr(trace, attr)
                rows_total = len(records)

                def batch_rows_for(start: int, stop: int, _records=records, _tag=tag):
                    return [
                        {"type": _tag, **_to_jsonable(r)}
                        for r in _records[start:stop]
                    ]

            for start in range(0, rows_total, batch_rows):
                stop = min(start + batch_rows, rows_total)
                fh.write(encode_jsonl_batch(batch_rows_for(start, stop)))
                written += stop - start
    return written


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` in the tagged JSONL format.

    Delegates to the batched :func:`write_trace_jsonl` encoder; the bytes
    are identical to the historical record-at-a-time writer.
    """
    write_trace_jsonl(trace, path)


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

    Returns a map from record family to the written path.  Nested fields are
    JSON-encoded in a single column.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for tag, attr in CHANNEL_FIELDS.items():
        records = getattr(trace, attr)
        if not records:
            continue
        out_path = directory / f"{attr}.csv"
        rows = [_to_jsonable(r) for r in records]
        fieldnames = list(rows[0].keys())
        with out_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                flat = {
                    k: json.dumps(v) if isinstance(v, (dict, list)) else v
                    for k, v in row.items()
                }
                writer.writerow(flat)
        written[attr] = out_path
    return written
