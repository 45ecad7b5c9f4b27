"""Columnar trace codec: finished traces to flat bytes and back.

Sessions record into :class:`~repro.trace.bus.InMemorySink` rows.  Moving
such a trace across a process boundary (the sweep executor's workers) or
onto disk (the scenario result cache) by pickling would walk the record
graph object by object.  This module is the codec those two transports use
instead: :func:`encode_payload` transposes each channel's row list into
**typed column arrays** and packs them into one ``bytes`` blob, and
:func:`trace_from_payload` rebuilds a lazy :class:`ColumnarTrace` from it.

* scalar fields live in ``array('q')`` / ``array('d')`` / ``array('b')``
  pools (optionals via sentinel encoding);
* strings and enums are **interned**: the column holds small integer codes
  into a per-column string table;
* variable-length integer lists (``packet_ids``, ``tb_ids``,
  ``failed_slot_us``) use the classic offsets-plus-value-pool layout;
* packet capture stamps keep their dict *insertion order* by interning the
  key tuple and pooling the values, so a JSONL line lists the taps in the
  order the packet passed them;
* nested dataclasses (``RtpInfo``, ``RanPacketTelemetry``) flatten into a
  presence bitmap plus one sub-column per field;
* session metadata travels as JSON; encoding refuses metadata that would
  not come back exactly (:func:`check_metadata`, as the JSONL writer does).

:meth:`ChannelStore.json_rows` is the one renderer of records as JSON, for
:mod:`repro.trace.io`'s JSONL and CSV writers as well.

Readers of a decoded trace never see the difference:
:class:`ColumnarTrace` materializes real schema dataclasses lazily on row
access (``trace.packets[i].captures`` works unchanged), caching
materialized rows so repeated access returns the *same* object — the
sharing contract :meth:`repro.trace.schema.Trace.for_call` documents.
Consumers that need a few fields of many rows read whole columns
(:meth:`ChannelView.column`, :meth:`ChannelView.captures_at`) without
building any record.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from .bus import CHANNEL_FIELDS, CHANNELS, RECORD_CLASSES
from .schema import MediaKind, RanPacketTelemetry, RtpInfo, TbKind, Trace

#: Sentinel encoding ``None`` in optional integer columns.  Simulation
#: quantities (microsecond timestamps, sizes, ids) never reach +/-2**62.
_NONE_INT = -(1 << 62)


# ----------------------------------------------------------------------
# Column types
# ----------------------------------------------------------------------
class _Column:
    """One field's storage across every row of a channel."""

    kind = ""

    def append_batch(self, values: List[object]) -> None:
        """Append one value per row, in row order."""
        raise NotImplementedError

    def get(self, i: int) -> object:
        """The field's Python value at row ``i`` (decoded)."""
        raise NotImplementedError

    def json_list(self, start: int, stop: int) -> List[object]:
        """JSON-ready values for rows ``[start, stop)`` in one pass: enums
        as their values, structs as dicts (what the JSONL lines hold)."""
        raise NotImplementedError

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

    def append_batch(self, values: List[object]) -> None:
        # array('d') accepts ints silently; that would turn a serialized
        # `0` into `0.0` and break byte-identity, so be strict here.
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

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        super().load(meta, buffers)
        self._members = []


class IntListColumn(_Column):
    """Variable-length int lists as an offsets array plus a value pool."""

    kind = "intlist"

    def __init__(self) -> None:
        self.offsets = array("q", [0])
        self.pool = array("q")

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

#: channel -> (field-name -> column kind).  Kinds are either a string tag
#: or a tuple carrying the enum/struct type information.  The record class
#: of each channel comes from :data:`repro.trace.bus.CHANNEL_TABLE`.
CHANNEL_SCHEMAS: Dict[str, Dict[str, object]] = {
    "packet": {
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
    "tb": {
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
    "grant": {
        "grant_id": "int",
        "ue_id": "int",
        "kind": ("enum", TbKind),
        "issued_us": "int",
        "usable_slot_us": "int",
        "size_bits": "int",
        "bsr_us": "optint",
        "bsr_bytes": "optint",
    },
    "frame": {
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
    "probe": {
        "probe_id": "int",
        "sent_us": "int",
        "received_us": "optint",
        "call_id": "optint",
    },
    "sync": {
        "host": "str",
        "t1": "int",
        "t2": "int",
        "t3": "int",
        "t4": "int",
        "call_id": "optint",
    },
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
    """One channel's rows as typed columns.

    Built from a list of records (one ``append_batch`` per column) or
    restored from a payload with :meth:`load`; read lazily through
    :class:`ChannelView`.
    """

    def __init__(self, channel: str, records: Sequence[object] = ()) -> None:
        self.channel = channel
        self.record_type = RECORD_CLASSES[channel]
        self.names, self.columns = _build_columns(
            self.record_type, CHANNEL_SCHEMAS[channel]
        )
        self._has_call_id = "call_id" in self.names
        self._cache: Dict[int, object] = {}  # row -> materialized record
        self.rows = len(records)
        if records:
            for name, column in zip(self.names, self.columns):
                column.append_batch(list(map(operator.attrgetter(name), records)))

    # -- read path -----------------------------------------------------
    def get(self, row: int) -> object:
        cached = self._cache.get(row)
        if cached is None:
            cached = self.record_type(
                *(column.get(row) for column in self.columns)
            )
            self._cache[row] = cached
        return cached

    def column(self, name: str) -> List[object]:
        """Field ``name`` of every row, decoded without building records."""
        return self.columns[self.names.index(name)].values(0, self.rows)

    def captures_at(self, tap: str) -> List[Optional[int]]:
        """Every row's capture stamp at ``tap`` (None where never seen)."""
        captures = self.columns[self.names.index("captures")]
        return captures.stamps(tap, self.rows)  # type: ignore[attr-defined]

    def json_rows(
        self, start: int, stop: int, type_tag: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """JSON-able dicts for rows ``[start, stop)``, column-batched.

        Each column decodes its whole slice in one pass and the rows are
        zipped back together at C speed.  Every JSONL line and CSV row
        comes from here.  When ``type_tag`` is given, each dict gets a
        leading ``"type"`` key (first in insertion order, matching the
        tagged-JSONL line format) without a second per-row copy.
        """
        names = self.names
        cols = [column.json_list(start, stop) for column in self.columns]
        if type_tag is not None:
            names = ["type", *names]
            cols.insert(0, [type_tag] * (stop - start))
        rows = [dict(zip(names, values)) for values in zip(*cols)]
        if self._has_call_id:
            # call_id is omitted when unset so single-call traces serialize
            # byte-identically to files written before the multi-call cell.
            for row in rows:
                if row["call_id"] is None:
                    del row["call_id"]
        return rows

    # -- payload -------------------------------------------------------
    def dump(self) -> Tuple[Dict[str, object], List[array]]:
        metas = []
        buffers: List[array] = []
        for column in self.columns:
            meta, parts = column.dump()
            metas.append({"meta": meta, "nbuf": len(parts)})
            buffers.extend(parts)
        return {"rows": self.rows, "columns": metas}, buffers

    def load(self, meta: Dict[str, object], buffers: List[array]) -> None:
        self.rows = meta["rows"]  # type: ignore[assignment]
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


def channel_stores(trace: Trace) -> Iterator[Tuple[str, ChannelStore]]:
    """``(channel, store)`` for every channel of ``trace``, in saved order.

    A decoded :class:`ColumnarTrace` yields its own stores; a row trace's
    records are transposed into a fresh :class:`ChannelStore` per channel.
    """
    for channel, attr in CHANNEL_FIELDS.items():
        if isinstance(trace, ColumnarTrace):
            yield channel, trace.stores[channel]
        else:
            yield channel, ChannelStore(channel, getattr(trace, attr))


def check_metadata(metadata: Dict[str, object]) -> str:
    """``metadata`` as JSON text, refusing what would not come back exactly.

    Raises :class:`ValueError` on a value JSON cannot encode, or one that
    decodes to something else (a tuple, a non-string key, an enum member).
    """
    try:
        text = json.dumps(metadata)
    except TypeError as exc:
        raise ValueError(f"trace metadata is not JSON: {exc}") from None
    # repr, not ==: a tuple, a str enum or an int enum compares equal to
    # the list, str or int JSON hands back.
    if repr(json.loads(text)) != repr(metadata):
        raise ValueError("trace metadata does not survive a JSON round trip")
    return text


# ----------------------------------------------------------------------
# Payload codec
# ----------------------------------------------------------------------
_PAYLOAD_MAGIC = b"ATHC2\n"


def encode_payload(trace: Trace) -> bytes:
    """Pack a trace's records into one compact ``bytes`` blob.

    Each channel's row list is transposed into its typed columns, one
    ``append_batch`` per column (a decoded trace dumps its own stores).  Layout: magic, 8-byte big-endian header
    length, JSON header (channel layouts, intern tables, metadata length),
    the JSON metadata, then the raw column buffers back to back.  Buffers
    round-trip through ``array.tobytes``/``frombytes`` — a memcpy, not a
    per-record walk.

    Raises :class:`ValueError` when the metadata does not survive a JSON
    round trip exactly (a tuple, a non-string key, an enum member...).
    """
    meta_blob = check_metadata(trace.metadata).encode("utf-8")
    channels: Dict[str, object] = {}
    buffer_specs: List[List[object]] = []
    chunks: List[bytes] = []
    for channel, store in channel_stores(trace):
        meta, buffers = store.dump()
        channels[channel] = meta
        for buf in buffers:
            raw = buf.tobytes()
            buffer_specs.append([buf.typecode, len(raw)])
            chunks.append(raw)
    header = {
        "channels": channels,
        "buffers": buffer_specs,
        "metadata_bytes": len(meta_blob),
    }
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
    if payload[: len(_PAYLOAD_MAGIC)] != _PAYLOAD_MAGIC:
        raise ValueError("not a columnar trace payload")
    cursor = len(_PAYLOAD_MAGIC)
    header_len = int.from_bytes(payload[cursor : cursor + 8], "big")
    cursor += 8
    header = json.loads(payload[cursor : cursor + header_len])
    cursor += header_len
    meta_len = header["metadata_bytes"]
    metadata = json.loads(payload[cursor : cursor + meta_len])
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
