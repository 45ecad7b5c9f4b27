"""Columnar trace backend: typed column arrays instead of record objects.

:class:`~repro.trace.bus.InMemorySink` retains every telemetry record as a
heap-allocated dataclass — at production trace volumes (per-packet records
at four capture taps, per-TB/grant PHY telemetry, per-frame media records)
the boxing itself becomes the hot path, and shipping such a trace across a
process boundary pickles the whole object graph record by record.  This
module stores each channel as **typed column arrays** instead:

* scalar fields live in ``array('q')`` / ``array('d')`` / ``array('b')``
  pools (optionals via sentinel encoding);
* strings and enums are **interned**: the column holds small integer codes
  into a per-column string table;
* variable-length integer lists (``packet_ids``, ``tb_ids``,
  ``failed_slot_us``) use the classic offsets-plus-value-pool layout;
* packet capture stamps keep their dict *insertion order* by interning the
  key tuple and pooling the values, so JSONL serialization stays
  byte-identical to the record writer;
* nested dataclasses (``RtpInfo``, ``RanPacketTelemetry``) flatten into a
  presence bitmap plus one sub-column per field.

Mutable not-yet-final records (``final=False`` emissions) stay in a small
row-format **staging area** — the live record object — and are transposed
into the columns when finalized (or at :meth:`ColumnarSink.close`), so the
emit hot path is a single list append and the transpose runs amortized over
closed prefixes.  Readers never see the difference:
:class:`ColumnarTrace` materializes real schema dataclasses lazily on row
access (``trace.packets[i].captures`` works unchanged), caching
materialized rows so repeated access returns the *same* object — the
sharing contract :meth:`repro.trace.schema.Trace.for_call` documents.

Because the payload of a finished store is a handful of flat buffers, a
whole trace serializes to one compact ``bytes`` blob
(:meth:`ColumnarTrace.to_payload` / :func:`trace_from_payload`) — a
memcpy-shaped transport the sweep executor uses instead of pickling record
graphs (see :mod:`repro.run.batch`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from array import array
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from .bus import CHANNELS, TraceSink
from .schema import (
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

#: Sentinel encoding ``None`` in optional integer columns.  Simulation
#: quantities (microsecond timestamps, sizes, ids) never reach +/-2**62.
_NONE_INT = -(1 << 62)

#: Rows a channel buffers in staging before an amortized transpose pass.
TRANSPOSE_BATCH = 512


# ----------------------------------------------------------------------
# Column types
# ----------------------------------------------------------------------
class _Column:
    """One field's storage across every row of a channel."""

    kind = ""

    def append(self, value: object) -> None:
        raise NotImplementedError

    def append_batch(self, values: List[object]) -> None:
        """Append many values at once (one call per column per transpose
        pass, instead of one per field per record)."""
        for value in values:
            self.append(value)

    def get(self, i: int) -> object:
        """The field's Python value at row ``i`` (decoded)."""
        raise NotImplementedError

    def json_value(self, i: int) -> object:
        """The field's JSON-ready value at row ``i`` (same as the record
        writer's :func:`repro.trace.io.to_jsonable` would produce)."""
        return self.get(i)

    def json_list(self, start: int, stop: int) -> List[object]:
        """JSON-ready values for rows ``[start, stop)`` in one pass."""
        return [self.json_value(i) for i in range(start, stop)]

    def values(self, start: int, stop: int) -> List[object]:
        """Decoded values (as :meth:`get` returns them) for rows
        ``[start, stop)`` in one pass.  For every kind but enums and
        structs the JSON-ready value *is* the decoded value."""
        return self.json_list(start, stop)

    # -- payload (de)serialization -------------------------------------
    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        """``(json-able meta, flat buffers)`` describing this column."""
        raise NotImplementedError

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        """Restore state captured by :meth:`dump`."""
        raise NotImplementedError


class IntColumn(_Column):
    kind = "int"

    def __init__(self) -> None:
        self.data = array("q")

    def append(self, value: object) -> None:
        self.data.append(value)  # type: ignore[arg-type]

    def append_batch(self, values: List[object]) -> None:
        self.data.extend(values)  # type: ignore[arg-type]

    def get(self, i: int) -> object:
        return self.data[i]

    def json_list(self, start: int, stop: int) -> List[object]:
        return self.data[start:stop].tolist()

    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        return {}, [self.data]

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        (self.data,) = buffers


class OptIntColumn(IntColumn):
    kind = "optint"

    def append(self, value: object) -> None:
        self.data.append(_NONE_INT if value is None else value)  # type: ignore[arg-type]

    def append_batch(self, values: List[object]) -> None:
        self.data.extend(
            [_NONE_INT if v is None else v for v in values]  # type: ignore[misc]
        )

    def get(self, i: int) -> object:
        value = self.data[i]
        return None if value == _NONE_INT else value

    def json_list(self, start: int, stop: int) -> List[object]:
        return [
            None if v == _NONE_INT else v
            for v in self.data[start:stop].tolist()
        ]


class BoolColumn(_Column):
    kind = "bool"

    def __init__(self) -> None:
        self.data = array("b")

    def append(self, value: object) -> None:
        self.data.append(1 if value else 0)

    def append_batch(self, values: List[object]) -> None:
        self.data.extend([1 if v else 0 for v in values])

    def get(self, i: int) -> object:
        return bool(self.data[i])

    def json_list(self, start: int, stop: int) -> List[object]:
        return [_BOOLS[v] for v in self.data[start:stop]]

    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        return {}, [self.data]

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        (self.data,) = buffers


_BOOLS = (False, True)


class FloatColumn(_Column):
    kind = "float"

    def __init__(self) -> None:
        self.data = array("d")

    def append(self, value: object) -> None:
        # array('d') accepts ints silently; that would turn a serialized
        # `0` into `0.0` and break byte-identity, so be strict here.
        if type(value) is not float:
            raise TypeError(f"float column got {type(value).__name__}: {value!r}")
        self.data.append(value)

    def append_batch(self, values: List[object]) -> None:
        for value in values:
            if type(value) is not float:
                raise TypeError(
                    f"float column got {type(value).__name__}: {value!r}"
                )
        self.data.extend(values)  # type: ignore[arg-type]

    def get(self, i: int) -> object:
        return self.data[i]

    def json_list(self, start: int, stop: int) -> List[object]:
        return self.data[start:stop].tolist()

    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        return {}, [self.data]

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        (self.data,) = buffers


class OptFloatColumn(FloatColumn):
    kind = "optfloat"

    def append(self, value: object) -> None:
        if value is None:
            self.data.append(math.nan)
            return
        super().append(value)

    def append_batch(self, values: List[object]) -> None:
        for value in values:
            if value is not None and type(value) is not float:
                raise TypeError(
                    f"float column got {type(value).__name__}: {value!r}"
                )
        self.data.extend(
            math.nan if value is None else value  # type: ignore[misc]
            for value in values
        )

    def get(self, i: int) -> object:
        value = self.data[i]
        return None if value != value else value  # NaN encodes None

    def json_list(self, start: int, stop: int) -> List[object]:
        return [
            None if value != value else value
            for value in self.data[start:stop].tolist()
        ]


class StrColumn(_Column):
    """Interned strings: the column stores codes into a string table."""

    kind = "str"

    def __init__(self) -> None:
        self.data = array("i")
        self.table: List[str] = []
        self._codes: Dict[str, int] = {}

    def append(self, value: object) -> None:
        code = self._codes.get(value)  # type: ignore[arg-type]
        if code is None:
            code = len(self.table)
            self._codes[value] = code  # type: ignore[index]
            self.table.append(value)  # type: ignore[arg-type]
        self.data.append(code)

    def append_batch(self, values: List[object]) -> None:
        codes, table, lookup = [], self.table, self._codes
        for value in values:
            code = lookup.get(value)
            if code is None:
                code = len(table)
                lookup[value] = code  # type: ignore[index]
                table.append(value)  # type: ignore[arg-type]
            codes.append(code)
        self.data.extend(codes)

    def get(self, i: int) -> object:
        return self.table[self.data[i]]

    def json_list(self, start: int, stop: int) -> List[object]:
        table = self.table
        return [table[code] for code in self.data[start:stop]]

    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        return {"table": self.table}, [self.data]

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        self.table = list(meta["table"])  # type: ignore[arg-type]
        self._codes = {s: c for c, s in enumerate(self.table)}
        (self.data,) = buffers


class EnumColumn(StrColumn):
    """Interned enum values, decoded back to the enum member."""

    kind = "enum"

    def __init__(self, enum_type: Type) -> None:
        super().__init__()
        self.enum_type = enum_type
        self._members: List[object] = []

    def append(self, value: object) -> None:
        super().append(value.value)  # type: ignore[attr-defined]

    def append_batch(self, values: List[object]) -> None:
        super().append_batch([v.value for v in values])  # type: ignore[attr-defined]

    def get(self, i: int) -> object:
        code = self.data[i]
        while len(self._members) <= code:
            self._members.append(self.enum_type(self.table[len(self._members)]))
        return self._members[code]

    def values(self, start: int, stop: int) -> List[object]:
        members = self._members
        while len(members) < len(self.table):
            members.append(self.enum_type(self.table[len(members)]))
        return [members[code] for code in self.data[start:stop]]

    def json_value(self, i: int) -> object:
        return self.table[self.data[i]]

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        super().load(meta, buffers)
        self._members = []


class IntListColumn(_Column):
    """Variable-length int lists as an offsets array plus a value pool."""

    kind = "intlist"

    def __init__(self) -> None:
        self.offsets = array("q", [0])
        self.pool = array("q")

    def append(self, value: object) -> None:
        self.pool.extend(value)  # type: ignore[arg-type]
        self.offsets.append(len(self.pool))

    def append_batch(self, values: List[object]) -> None:
        pool, ends = self.pool, []
        for value in values:
            pool.extend(value)  # type: ignore[arg-type]
            ends.append(len(pool))
        self.offsets.extend(ends)

    def get(self, i: int) -> object:
        return self.pool[self.offsets[i] : self.offsets[i + 1]].tolist()

    def json_list(self, start: int, stop: int) -> List[object]:
        offsets, pool = self.offsets, self.pool
        return [
            pool[offsets[i] : offsets[i + 1]].tolist()
            for i in range(start, stop)
        ]

    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        return {}, [self.offsets, self.pool]

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        self.offsets, self.pool = buffers


class CapturesColumn(_Column):
    """Packet capture stamps: ordered ``{tap: time_us}`` dicts.

    The key *tuple* is interned (there are only a handful of distinct
    capture paths) and the values go into an offsets/pool pair, so the
    reconstructed dict preserves the original insertion order — which the
    byte-identical JSONL guarantee depends on.
    """

    kind = "captures"

    def __init__(self) -> None:
        self.key_codes = array("i")
        self.key_tables: List[Tuple[str, ...]] = []
        self._codes: Dict[Tuple[str, ...], int] = {}
        self.offsets = array("q", [0])
        self.pool = array("q")

    def append(self, value: object) -> None:
        keys = tuple(value.keys())  # type: ignore[attr-defined]
        code = self._codes.get(keys)
        if code is None:
            code = len(self.key_tables)
            self._codes[keys] = code
            self.key_tables.append(keys)
        self.key_codes.append(code)
        self.pool.extend(value.values())  # type: ignore[attr-defined]
        self.offsets.append(len(self.pool))

    def append_batch(self, values: List[object]) -> None:
        lookup, tables, pool = self._codes, self.key_tables, self.pool
        codes, ends = [], []
        for value in values:
            keys = tuple(value.keys())  # type: ignore[attr-defined]
            code = lookup.get(keys)
            if code is None:
                code = len(tables)
                lookup[keys] = code
                tables.append(keys)
            codes.append(code)
            pool.extend(value.values())  # type: ignore[attr-defined]
            ends.append(len(pool))
        self.key_codes.extend(codes)
        self.offsets.extend(ends)

    def get(self, i: int) -> object:
        keys = self.key_tables[self.key_codes[i]]
        values = self.pool[self.offsets[i] : self.offsets[i + 1]]
        return dict(zip(keys, values))

    def json_list(self, start: int, stop: int) -> List[object]:
        tables, offsets, pool = self.key_tables, self.offsets, self.pool
        return [
            dict(zip(tables[code], pool[offsets[i] : offsets[i + 1]]))
            for i, code in enumerate(self.key_codes[start:stop], start)
        ]

    def stamps(self, tap: str, stop: int) -> List[Optional[int]]:
        """Each of rows ``[0, stop)``'s stamp at ``tap`` (None if unseen).

        ``tap``'s position is looked up once per interned key tuple, so a
        row costs one pool read instead of a dict build.
        """
        positions = [
            keys.index(tap) if tap in keys else None for keys in self.key_tables
        ]
        offsets, pool = self.offsets, self.pool
        return [
            None if pos is None else pool[offsets[i] + pos]
            for i, pos in enumerate(map(positions.__getitem__, self.key_codes[:stop]))
        ]

    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        meta = {"key_tables": [list(keys) for keys in self.key_tables]}
        return meta, [self.key_codes, self.offsets, self.pool]

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        self.key_tables = [tuple(keys) for keys in meta["key_tables"]]  # type: ignore[union-attr]
        self._codes = {keys: c for c, keys in enumerate(self.key_tables)}
        self.key_codes, self.offsets, self.pool = buffers


class StructColumn(_Column):
    """Optional nested dataclass flattened into per-field sub-columns."""

    kind = "struct"

    def __init__(self, struct_type: Type, field_kinds: Dict[str, object]) -> None:
        self.struct_type = struct_type
        self.present = array("b")
        self.names, self.columns = _build_columns(struct_type, field_kinds)

    def append(self, value: object) -> None:
        if value is None:
            self.present.append(0)
            for column in self.columns:
                column.append(_ABSENT_DEFAULTS[column.kind])
            return
        self.present.append(1)
        for name, column in zip(self.names, self.columns):
            column.append(getattr(value, name))

    def append_batch(self, values: List[object]) -> None:
        self.present.extend([0 if v is None else 1 for v in values])
        for name, column in zip(self.names, self.columns):
            absent = _ABSENT_DEFAULTS[column.kind]
            column.append_batch(
                [absent if v is None else getattr(v, name) for v in values]
            )

    def get(self, i: int) -> object:
        if not self.present[i]:
            return None
        return self.struct_type(*(column.get(i) for column in self.columns))

    def values(self, start: int, stop: int) -> List[object]:
        return [self.get(i) for i in range(start, stop)]

    def json_value(self, i: int) -> object:
        if not self.present[i]:
            return None
        return {
            name: column.json_value(i)
            for name, column in zip(self.names, self.columns)
        }

    def json_list(self, start: int, stop: int) -> List[object]:
        names = self.names
        subs = [column.json_list(start, stop) for column in self.columns]
        present = self.present[start:stop]
        return [
            dict(zip(names, row_values)) if present[k] else None
            for k, row_values in enumerate(zip(*subs))
        ]

    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        metas = []
        buffers: List[array] = [self.present]
        for column in self.columns:
            meta, parts = column.dump()
            metas.append({"meta": meta, "nbuf": len(parts)})
            buffers.extend(parts)
        return {"fields": metas}, buffers

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        self.present = buffers[0]
        cursor = 1
        for column, field_meta in zip(self.columns, meta["fields"]):  # type: ignore[union-attr]
            nbuf = field_meta["nbuf"]
            column.load(field_meta["meta"], buffers[cursor : cursor + nbuf])
            cursor += nbuf


#: Placeholder appended to a struct's sub-columns for absent rows.
_ABSENT_DEFAULTS: Dict[str, object] = {
    "int": 0,
    "optint": None,
    "bool": False,
    "float": 0.0,
    "optfloat": None,
    "intlist": (),
}


# ----------------------------------------------------------------------
# Channel schemas
# ----------------------------------------------------------------------
_RTP_KINDS: Dict[str, object] = {
    "ssrc": "int",
    "seq": "int",
    "timestamp": "int",  # RTP media-clock ticks (schema wire-format name)
    "frame_id": "int",
    "layer_id": "int",
    "marker": "bool",
    "frame_start": "bool",
}

_RAN_KINDS: Dict[str, object] = {
    "enqueue_us": "int",
    "first_tb_us": "optint",
    "delivered_us": "optint",
    "queue_wait_us": "int",
    "sched_wait_us": "int",
    "spread_wait_us": "int",
    "harq_delay_us": "int",
    "harq_rounds": "int",
    "tb_ids": "intlist",
}

#: channel -> (record type, field-name -> column kind).  Kinds are either a
#: string tag or a tuple carrying the enum/struct type information.
CHANNEL_SCHEMAS: Dict[str, Tuple[Type, Dict[str, object]]] = {
    "packet": (
        PacketRecord,
        {
            "packet_id": "int",
            "flow_id": "str",
            "kind": ("enum", MediaKind),
            "size_bytes": "int",
            "rtp": ("struct", RtpInfo, _RTP_KINDS),
            "captures": "captures",
            "ran": ("struct", RanPacketTelemetry, _RAN_KINDS),
            "dropped": "bool",
            "call_id": "optint",
        },
    ),
    "tb": (
        TransportBlockRecord,
        {
            "tb_id": "int",
            "ue_id": "int",
            "slot_us": "int",
            "kind": ("enum", TbKind),
            "size_bits": "int",
            "used_bits": "int",
            "packet_ids": "intlist",
            "harq_rounds": "int",
            "failed_slot_us": "intlist",
            "delivered_us": "optint",
        },
    ),
    "grant": (
        GrantRecord,
        {
            "grant_id": "int",
            "ue_id": "int",
            "kind": ("enum", TbKind),
            "issued_us": "int",
            "usable_slot_us": "int",
            "size_bits": "int",
            "bsr_us": "optint",
            "bsr_bytes": "optint",
        },
    ),
    "frame": (
        FrameRecord,
        {
            "frame_id": "int",
            "stream": "str",
            "capture_us": "int",
            "encode_done_us": "int",
            "size_bytes": "int",
            "svc_layer": "int",
            "target_fps": "float",
            "packet_ids": "intlist",
            "ssim": "optfloat",
            "rendered_us": "optint",
            "display_duration_us": "optint",
            "stalled": "bool",
            "call_id": "optint",
        },
    ),
    "probe": (
        ProbeRecord,
        {
            "probe_id": "int",
            "sent_us": "int",
            "received_us": "optint",
            "call_id": "optint",
        },
    ),
    "sync": (
        SyncExchangeRecord,
        {
            "host": "str",
            "t1": "int",
            "t2": "int",
            "t3": "int",
            "t4": "int",
            "call_id": "optint",
        },
    ),
}


def _make_column(kind: object) -> _Column:
    if kind == "int":
        return IntColumn()
    if kind == "optint":
        return OptIntColumn()
    if kind == "bool":
        return BoolColumn()
    if kind == "float":
        return FloatColumn()
    if kind == "optfloat":
        return OptFloatColumn()
    if kind == "str":
        return StrColumn()
    if kind == "intlist":
        return IntListColumn()
    if kind == "captures":
        return CapturesColumn()
    if isinstance(kind, tuple) and kind[0] == "enum":
        return EnumColumn(kind[1])
    if isinstance(kind, tuple) and kind[0] == "struct":
        return StructColumn(kind[1], kind[2])
    raise ValueError(f"unknown column kind: {kind!r}")


def _build_columns(
    record_type: Type, field_kinds: Dict[str, object]
) -> Tuple[List[str], List[_Column]]:
    """Columns in dataclass field order, asserting the schema covers it."""
    names = [f.name for f in dataclasses.fields(record_type)]
    if set(names) != set(field_kinds):
        missing = set(names) ^ set(field_kinds)
        raise RuntimeError(
            f"columnar schema out of sync with {record_type.__name__}: {missing}"
        )
    return names, [_make_column(field_kinds[name]) for name in names]


# ----------------------------------------------------------------------
# Per-channel store
# ----------------------------------------------------------------------
class ChannelStore:
    """One channel's columns plus the row-format staging area.

    Rows ``[0, base)`` live in the columns; rows ``[base, rows)`` are still
    staged as live record objects (emission order).  A staged row is
    *closed* once emitted final or finalized; closed prefixes transpose
    into the columns in batches.
    """

    def __init__(self, channel: str) -> None:
        record_type, field_kinds = CHANNEL_SCHEMAS[channel]
        self.channel = channel
        self.record_type = record_type
        self.names, self.columns = _build_columns(record_type, field_kinds)
        self._getters = [
            (operator.attrgetter(name), column)
            for name, column in zip(self.names, self.columns)
        ]
        self._has_call_id = "call_id" in self.names
        self._base = 0  # rows already transposed into the columns
        self._staged: List[List[object]] = []  # [record, closed] entries
        self._head = 0  # first staged entry not yet transposed
        self._open: Dict[int, List[object]] = {}  # id(record) -> entry
        self._cache: Dict[int, object] = {}  # row -> materialized record

    # -- write path ----------------------------------------------------
    @property
    def rows(self) -> int:
        return self._base + len(self._staged) - self._head

    def emit(self, record: object, final: bool) -> int:
        """Stage one record; returns its (stable) row index."""
        row = self.rows
        entry = [record, final]
        self._staged.append(entry)
        if not final:
            self._open[id(record)] = entry
        elif len(self._staged) - self._head >= TRANSPOSE_BATCH:
            self._transpose_ready()
        return row

    def close_record(self, record: object) -> bool:
        """Mark a staged ``final=False`` record closed; True if known."""
        entry = self._open.pop(id(record), None)
        if entry is None:
            return False
        entry[1] = True
        if len(self._staged) - self._head >= TRANSPOSE_BATCH:
            self._transpose_ready()
        return True

    def flush(self) -> None:
        """Transpose every staged row (open ones at their current state)."""
        self._encode_batch([entry[0] for entry in self._staged[self._head :]])
        self._staged.clear()
        self._head = 0
        self._open.clear()

    def _transpose_ready(self) -> None:
        staged, head = self._staged, self._head
        n = len(staged)
        while head < n and staged[head][1]:
            head += 1
        self._encode_batch([entry[0] for entry in staged[self._head : head]])
        self._head = head
        if head == n:
            staged.clear()
            self._head = 0
        elif head > 4 * TRANSPOSE_BATCH:
            del staged[:head]
            self._head = 0

    def _encode_batch(self, records: List[object]) -> None:
        # One append_batch per column (C-level extend) instead of one
        # append per field per record — the transpose hot path.
        if not records:
            return
        for getter, column in self._getters:
            column.append_batch([getter(record) for record in records])
        self._base += len(records)

    # -- read path -----------------------------------------------------
    def get(self, row: int) -> object:
        if row >= self._base:
            return self._staged[self._head + (row - self._base)][0]
        cached = self._cache.get(row)
        if cached is None:
            cached = self.record_type(
                *(column.get(row) for column in self.columns)
            )
            self._cache[row] = cached
        return cached

    def column(self, name: str) -> List[object]:
        """Field ``name`` of every row, decoded without building records."""
        values = self.columns[self.names.index(name)].values(0, self._base)
        values.extend(getattr(entry[0], name) for entry in self._staged[self._head :])
        return values

    def captures_at(self, tap: str) -> List[Optional[int]]:
        """Every row's capture stamp at ``tap`` (None where never seen)."""
        captures = self.columns[self.names.index("captures")]
        stamps = captures.stamps(tap, self._base)  # type: ignore[attr-defined]
        stamps.extend(
            entry[0].captures.get(tap) for entry in self._staged[self._head :]
        )
        return stamps

    def json_row(self, row: int) -> Dict[str, object]:
        """The row as the JSON-able dict the record writer would produce."""
        if row >= self._base:
            from .io import to_jsonable

            return to_jsonable(self._staged[self._head + (row - self._base)][0])  # type: ignore[return-value]
        out = {
            name: column.json_value(row)
            for name, column in zip(self.names, self.columns)
        }
        # call_id is omitted when unset so single-call traces serialize
        # byte-identically to files written before the multi-call cell.
        if out.get("call_id", 0) is None:
            del out["call_id"]
        return out

    def json_rows(
        self, start: int, stop: int, type_tag: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """JSON-able dicts for rows ``[start, stop)``, column-batched.

        Each column decodes its whole slice in one pass and the rows are
        zipped back together at C speed — the fast path behind the batch
        JSONL encoder.  Staged (not yet transposed) rows at the tail fall
        back to per-row reflection.  When ``type_tag`` is given, each dict
        gets a leading ``"type"`` key (first in insertion order, matching
        the tagged-JSONL line format) without a second per-row copy.
        """
        base = self._base
        batch_stop = min(stop, base)
        rows: List[Dict[str, object]] = []
        if start < batch_stop:
            names = self.names
            cols = [column.json_list(start, batch_stop) for column in self.columns]
            if type_tag is not None:
                names = ["type", *names]
                cols.insert(0, [type_tag] * (batch_stop - start))
            rows = [dict(zip(names, values)) for values in zip(*cols)]
            if self._has_call_id:
                for row in rows:
                    if row["call_id"] is None:
                        del row["call_id"]
        if type_tag is None:
            for i in range(max(start, batch_stop), stop):
                rows.append(self.json_row(i))
        else:
            for i in range(max(start, batch_stop), stop):
                rows.append({"type": type_tag, **self.json_row(i)})
        return rows

    # -- payload -------------------------------------------------------
    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        if self._staged:
            raise RuntimeError(
                f"channel {self.channel!r} still has staged rows; close the "
                "sink before serializing"
            )
        metas = []
        buffers: List[array] = []
        for column in self.columns:
            meta, parts = column.dump()
            metas.append({"meta": meta, "nbuf": len(parts)})
            buffers.extend(parts)
        return {"rows": self._base, "columns": metas}, buffers

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        self._base = meta["rows"]  # type: ignore[assignment]
        cursor = 0
        for column, column_meta in zip(self.columns, meta["columns"]):  # type: ignore[union-attr]
            nbuf = column_meta["nbuf"]
            column.load(column_meta["meta"], buffers[cursor : cursor + nbuf])
            cursor += nbuf


class ChannelView:
    """List-like lazy view over one channel's rows.

    Supports the access patterns trace consumers use — ``len``, indexing
    (including negative indices and slices), iteration, equality against
    any sequence — while materializing records only on demand.
    """

    def __init__(self, store: ChannelStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.rows

    def __getitem__(self, index):
        store = self._store
        if isinstance(index, slice):
            return [store.get(i) for i in range(*index.indices(store.rows))]
        if index < 0:
            index += store.rows
        if not 0 <= index < store.rows:
            raise IndexError("trace row index out of range")
        return store.get(index)

    def __iter__(self) -> Iterator[object]:
        store = self._store
        for i in range(store.rows):
            yield store.get(i)

    def column(self, name: str) -> List[object]:
        """One scalar field of every row, in row order, as a plain list.

        Decodes straight from the column arrays (int, float, bool, str,
        enum and their optional forms), so no record object is built —
        the read path for consumers that need a few fields of many rows.
        """
        return self._store.column(name)

    def captures_at(self, tap: str) -> List[Optional[int]]:
        """Each packet row's capture stamp at ``tap`` (a
        :class:`~repro.trace.schema.CapturePoint` value), None if unseen."""
        return self._store.captures_at(tap)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ChannelView):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    def __repr__(self) -> str:
        return (
            f"<ChannelView {self._store.channel!r} rows={self._store.rows}>"
        )


class ColumnarTrace(Trace):
    """A :class:`~repro.trace.schema.Trace` backed by column arrays.

    Record-family attributes are :class:`ChannelView` sequences; everything
    else (``metadata``, the helper methods, :meth:`for_call`) behaves
    exactly like the dataclass-backed trace.
    """

    def __init__(
        self,
        stores: Dict[str, ChannelStore],
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.stores = stores
        self.metadata = metadata if metadata is not None else {}
        self.packets = ChannelView(stores["packet"])  # type: ignore[assignment]
        self.transport_blocks = ChannelView(stores["tb"])  # type: ignore[assignment]
        self.grants = ChannelView(stores["grant"])  # type: ignore[assignment]
        self.frames = ChannelView(stores["frame"])  # type: ignore[assignment]
        self.probes = ChannelView(stores["probe"])  # type: ignore[assignment]
        self.sync_exchanges = ChannelView(stores["sync"])  # type: ignore[assignment]

    def to_payload(self) -> bytes:
        """Serialize to the compact flat-buffer payload format."""
        return encode_payload(self)


# ----------------------------------------------------------------------
# The sink
# ----------------------------------------------------------------------
class ColumnarSink(TraceSink):
    """Telemetry sink retaining records in :class:`ChannelStore` columns.

    Emission is a list append; closed-prefix transposes run amortized in
    :data:`TRANSPOSE_BATCH` chunks.  The sink also keeps the global *write
    order* a :class:`~repro.trace.bus.StreamingJsonlSink` would have used
    (immediate for final records, finalization-prefix order for mutable
    ones, per-channel drain at close), so :meth:`write_jsonl` reproduces
    the streaming sink's file byte for byte — proven by golden tests.
    """

    def __init__(self, metadata: Optional[Dict[str, object]] = None) -> None:
        self.stores: Dict[str, ChannelStore] = {
            channel: ChannelStore(channel) for channel in CHANNELS
        }
        self._metadata: Dict[str, object] = dict(metadata or {})
        self._channel_code = {channel: k for k, channel in enumerate(CHANNELS)}
        self._order_channel = array("b")
        self._order_row = array("q")
        # Emission-ordered still-open rows per channel (StreamingJsonlSink's
        # prefix-flush bookkeeping, tracking row indices instead of files).
        self._open: Dict[str, "OrderedDict[int, int]"] = {
            channel: OrderedDict() for channel in CHANNELS
        }
        self._done: Dict[str, set] = {channel: set() for channel in CHANNELS}
        self._channel_of: Dict[int, str] = {}
        self._closed = False
        self._trace: Optional[ColumnarTrace] = None

    # ------------------------------------------------------------------
    def emit(self, channel: str, record: object, *, final: bool = True) -> None:
        store = self.stores.get(channel)
        if store is None:
            raise ValueError(f"unknown channel: {channel!r}")
        if self._closed:
            raise RuntimeError("columnar sink is closed")
        row = store.emit(record, final)
        if final:
            self._order_channel.append(self._channel_code[channel])
            self._order_row.append(row)
            return
        self._open[channel][id(record)] = row
        self._channel_of[id(record)] = channel

    def finalize(self, record: object) -> None:
        channel = self._channel_of.get(id(record))
        if channel is None:
            return
        self.stores[channel].close_record(record)
        self._done[channel].add(id(record))
        # Flush the completed prefix of the channel's open table into the
        # global write order, mirroring StreamingJsonlSink._flush_ready.
        table = self._open[channel]
        done = self._done[channel]
        code = self._channel_code[channel]
        while table:
            key = next(iter(table))
            if key not in done:
                break
            row = table.pop(key)
            done.discard(key)
            self._channel_of.pop(key, None)
            self._order_channel.append(code)
            self._order_row.append(row)

    def set_metadata(self, metadata: Dict[str, object]) -> None:
        self._metadata.update(metadata)

    def close(self) -> None:
        if self._closed:
            return
        for channel in CHANNELS:
            code = self._channel_code[channel]
            table = self._open[channel]
            while table:
                key, row = table.popitem(last=False)
                self._channel_of.pop(key, None)
                self._done[channel].discard(key)
                self._order_channel.append(code)
                self._order_row.append(row)
            self.stores[channel].flush()
        self._closed = True

    def result_trace(self) -> Optional[Trace]:
        if self._trace is None:
            self._trace = ColumnarTrace(self.stores, self._metadata)
        return self._trace

    # ------------------------------------------------------------------
    def write_jsonl(self, path, batch_rows: int = 1024) -> int:
        """Write the tagged-JSONL trace file, batch-encoded from columns.

        Line order (and therefore bytes) matches what a
        :class:`~repro.trace.bus.StreamingJsonlSink` fed the same emission
        sequence would have written.  Returns the record-line count.
        """
        from .io import encode_jsonl_batch, to_jsonable

        if not self._closed:
            raise RuntimeError("close the sink before writing JSONL")
        dumps = json.dumps
        channel_names = list(CHANNELS)
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps({"type": "meta", **to_jsonable(self._metadata)}) + "\n")
            order_channel, order_row = self._order_channel, self._order_row
            for start in range(0, len(order_row), batch_rows):
                stop = min(start + batch_rows, len(order_row))
                rows = []
                for k in range(start, stop):
                    channel = channel_names[order_channel[k]]
                    row = self.stores[channel].json_row(order_row[k])
                    rows.append({"type": channel, **row})
                fh.write(encode_jsonl_batch(rows))
                written += len(rows)
        return written


# ----------------------------------------------------------------------
# Payload transport
# ----------------------------------------------------------------------
_PAYLOAD_MAGIC = b"ATHC1\n"


def encode_payload(trace: ColumnarTrace) -> bytes:
    """Pack a columnar trace into one compact ``bytes`` blob.

    Layout: magic, 8-byte big-endian header length, JSON header (channel
    layouts, intern tables, pickled-metadata length), then the raw column
    buffers back to back.  Buffers round-trip through
    ``array.tobytes``/``frombytes`` — a memcpy, not a per-record walk.
    """
    import pickle

    header: Dict[str, object] = {"channels": {}, "buffers": []}
    chunks: List[bytes] = []
    buffer_specs: List[List[object]] = []
    for channel, store in trace.stores.items():
        meta, buffers = store.dump()
        header["channels"][channel] = meta  # type: ignore[index]
        for buf in buffers:
            raw = buf.tobytes()
            buffer_specs.append([buf.typecode, len(raw)])
            chunks.append(raw)
    header["buffers"] = buffer_specs
    meta_blob = pickle.dumps(dict(trace.metadata), protocol=pickle.HIGHEST_PROTOCOL)
    header["metadata_bytes"] = len(meta_blob)
    header_blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [
        _PAYLOAD_MAGIC,
        len(header_blob).to_bytes(8, "big"),
        header_blob,
        meta_blob,
    ]
    parts.extend(chunks)
    return b"".join(parts)


def trace_from_payload(payload: bytes) -> ColumnarTrace:
    """Rebuild a :class:`ColumnarTrace` from :func:`encode_payload` bytes."""
    import pickle

    if payload[: len(_PAYLOAD_MAGIC)] != _PAYLOAD_MAGIC:
        raise ValueError("not a columnar trace payload")
    cursor = len(_PAYLOAD_MAGIC)
    header_len = int.from_bytes(payload[cursor : cursor + 8], "big")
    cursor += 8
    header = json.loads(payload[cursor : cursor + header_len])
    cursor += header_len
    meta_len = header["metadata_bytes"]
    metadata = pickle.loads(payload[cursor : cursor + meta_len])
    cursor += meta_len
    view = memoryview(payload)
    buffers: List[array] = []
    for typecode, nbytes in header["buffers"]:
        buf = array(typecode)
        buf.frombytes(view[cursor : cursor + nbytes])
        cursor += nbytes
        buffers.append(buf)
    stores: Dict[str, ChannelStore] = {}
    offset = 0
    for channel in CHANNELS:
        store = ChannelStore(channel)
        meta = header["channels"][channel]
        nbuf = sum(column["nbuf"] for column in meta["columns"])
        store.load(meta, buffers[offset : offset + nbuf])
        offset += nbuf
        stores[channel] = store
    return ColumnarTrace(stores, metadata)


def columnar_trace_from_trace(trace: Trace) -> ColumnarTrace:
    """Transpose an ordinary record-backed trace into columns."""
    from .bus import CHANNEL_FIELDS

    if isinstance(trace, ColumnarTrace):
        return trace
    sink = ColumnarSink(metadata=dict(trace.metadata))
    for channel, attr in CHANNEL_FIELDS.items():
        for record in getattr(trace, attr):
            sink.emit(channel, record)
    sink.close()
    result = sink.result_trace()
    assert isinstance(result, ColumnarTrace)
    return result
