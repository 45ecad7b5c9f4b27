"""Content-addressed on-disk scenario result store (DESIGN.md §3.6).

Athena's evaluation is sweep-shaped: the paper's figures and the §5.2/§5.3
mitigation studies re-run near-identical scenarios across seeds, access
modes, and mitigation toggles, and every ``reproduce-all`` invocation used
to re-simulate each point from scratch.  Simulation is deterministic —
identical fully-resolved :class:`~repro.run.scenario.ScenarioConfig` plus
identical simulator code always produce a byte-identical trace — so a
finished run is a pure function of its inputs and can be cached under the
same derivation-keying discipline build systems use:

* :func:`scenario_fingerprint` hashes the **canonical** scenario — calls
  expanded through :meth:`~repro.run.scenario.ScenarioConfig.effective_calls`
  with every per-call ``inherit`` resolved, enum/dataclass fields reduced to
  builtins, key order canonicalized — salted with :func:`code_version_token`
  (package version + a hash of the simulator source tree), so *any* code
  change self-invalidates;
* values are the ``ATHC2`` columnar trace payload plus a small JSON
  summary of the live-diagnosis cause counts (the calls are rebuilt from
  the config), stored one file per entry under ``.athena-cache/`` with a
  JSON index, a size cap, and LRU eviction ordered by a logical access
  tick (no wall clock — ATH001 applies here too);
* hits rehydrate through
  :func:`~repro.trace.columnar.trace_from_payload` into a
  :class:`CachedSessionResult` that duck-types the trace/QoE/diagnosis
  surface of :class:`~repro.run.scenario.SessionResult`, and golden-hash
  tests prove the rehydrated trace serializes byte-identically to a fresh
  simulation.

Corruption is treated as absence: a truncated or tampered entry file fails
its length check, or its summary is not this layout's JSON (an older pickled
one included); the entry is dropped, counted as a miss, and the scenario is
simulated and re-stored.  Concurrent writers are safe through atomic
``os.replace`` — entries are content-addressed, so two processes racing on
one key write identical bytes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..core.rootcause import DelayCause
from ..media.quality import QoeSummary, qoe_summary
from .scenario import CallSpec, ScenarioConfig

if TYPE_CHECKING:
    from ..core.streaming.live import LiveDiagnosis
    from ..trace.columnar import ColumnarTrace
    from .scenario import SessionResult

#: Bump when the entry layout or summary contents change; stale caches are
#: discarded wholesale (the code-version salt handles simulator changes).
CACHE_SCHEMA = "athena-cache/2"

DEFAULT_CACHE_DIR = ".athena-cache"

#: Default on-disk budget before LRU eviction kicks in.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Entry-file magic: summary length + payload length follow as 8-byte
#: big-endian integers, then the JSON summary, then the ATHC2 payload.
_ENTRY_MAGIC = b"ATHE2\n"

#: Subpackages whose sources feed the code-version salt.  These are the
#: layers a running scenario executes (``core`` is included because the
#: live-analysis tap feeds the §5.2/§5.3 mitigations, so streaming-operator
#: changes can change a run's outputs).
SOURCE_PACKAGES = (
    "sim", "phy", "net", "app", "media", "cc", "mitigation", "run",
    "trace", "core",
)

#: CallSpec fields whose ``None`` means *inherit from the scenario*;
#: resolved through :meth:`CallSpec.inherit` before hashing so a bare
#: ``CallSpec()`` and an explicitly-spelled equivalent fingerprint alike.
_INHERITED_CALL_FIELDS = (
    "adaptation", "channel", "channel_phases", "fixed_mode",
    "fixed_bitrate_kbps", "mask_ran_delay", "aware_ran", "aware_ran_learned",
    "jitter_buffer_margin_ms", "jitter_buffer_beta", "record_tbs",
    "start_prober",
)


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
_code_version_token: Optional[str] = None


def code_version_token() -> str:
    """``<package version>+<source tree hash>``: the cache's global salt.

    Hashes every ``*.py`` under :data:`SOURCE_PACKAGES` (sorted relpath +
    content), so editing any simulator layer changes the salt and every
    prior fingerprint stops matching — stale results can never be served
    after a code change.  Computed once per process.
    """
    global _code_version_token
    if _code_version_token is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for package in SOURCE_PACKAGES:
            base = root / package
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode("utf-8"))
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
        _code_version_token = f"{repro.__version__}+{digest.hexdigest()[:16]}"
    return _code_version_token


def _canon(value: object) -> object:
    """Reduce a config value tree to JSON-able builtins, deterministically."""
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canon(value[key]) for key in sorted(value)}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} in a ScenarioConfig"
    )


def _canon_call(config: ScenarioConfig, spec: CallSpec) -> Dict[str, object]:
    """One call with its scenario-inherited fields fully materialized."""
    resolved: Dict[str, object] = {
        "call_id": spec.call_id,
        "ue_id": spec.resolved_ue_id(),
        "proactive": spec.proactive,
        "start_media": spec.start_media,
    }
    for name in _INHERITED_CALL_FIELDS:
        resolved[name] = _canon(spec.inherit(config, name))
    return resolved


def canonical_scenario(config: ScenarioConfig) -> Dict[str, object]:
    """The fully-resolved, order-canonicalized form of a scenario.

    Calls are expanded (``calls=None`` keeps an explicit ``multicall=False``
    marker: the legacy single-call session draws from differently-named RNG
    streams than a one-element ``calls`` list, so the two must never share
    a fingerprint), every per-call override is resolved against the
    scenario, and enums/dataclasses are reduced to builtins.  Hashed by
    :func:`scenario_fingerprint`; also the in-flight dedup key used by
    :func:`~repro.run.batch.run_batch`.
    """
    out: Dict[str, object] = {}
    for f in dataclasses.fields(config):
        if f.name == "calls":
            continue
        out[f.name] = _canon(getattr(config, f.name))
    out["multicall"] = config.multicall
    out["calls"] = [
        _canon_call(config, spec) for spec in config.effective_calls()
    ]
    return out


def scenario_key(config: ScenarioConfig) -> str:
    """Deterministic unsalted key: equal iff the resolved scenarios are."""
    payload = json.dumps(
        canonical_scenario(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def scenario_fingerprint(
    config: ScenarioConfig, salt: Optional[str] = None
) -> str:
    """The content address of one scenario run under the current code.

    ``salt`` defaults to :func:`code_version_token`; tests override it to
    prove invalidation on a version bump.
    """
    if salt is None:
        salt = code_version_token()
    payload = json.dumps(
        {"salt": salt, "scenario": canonical_scenario(config)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cached results
# ----------------------------------------------------------------------
@dataclass
class CachedDiagnosis:
    """The slice of a live diagnosis feed collectors read."""

    cause_counts: Counter = field(default_factory=Counter)

    def cause_share(self, cause: DelayCause) -> float:
        """Fraction of diagnosed frames attributed to ``cause``."""
        total = sum(self.cause_counts.values())
        if total == 0:
            return 0.0
        return self.cause_counts[cause] / total


@dataclass
class CachedCallResult:
    """One call's slice of a rehydrated session (duck-types ``CallResult``)."""

    spec: CallSpec
    ue_id: int
    trace: "ColumnarTrace"
    diagnosis: Optional[CachedDiagnosis] = None

    @property
    def call_id(self) -> int:
        """Identifier of this call within the cell."""
        return self.spec.call_id

    def qoe(self) -> QoeSummary:
        """Fig 7-style QoE aggregation of this call alone."""
        return qoe_summary(self.trace.packets, self.trace.frames)


class CachedSessionResult:
    """A rehydrated run: the trace plus the summary-backed accessors.

    Presents the *data* surface of
    :class:`~repro.run.scenario.SessionResult` — ``trace``, ``qoe()``,
    ``calls``/``call()``/``per_call_qoe()``, ``diagnosis`` — which is what
    every module-level collector in :mod:`repro.run.batch` reads.  Live
    simulator handles (``sim``, ``sender``, ``ran``, …) do not survive a
    round trip through the store; collectors needing them must run
    uncached.  The calls come from ``config``, as the session built them;
    only the diagnoses come from the stored summary.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        trace: "ColumnarTrace",
        diagnosis: Optional[CachedDiagnosis],
        call_diagnoses: List[Optional[CachedDiagnosis]],
    ) -> None:
        self.config = config
        self.trace = trace
        self.diagnosis = diagnosis
        self._call_diagnoses = call_diagnoses
        self._calls: Optional[List[CachedCallResult]] = None

    @property
    def calls(self) -> List[CachedCallResult]:
        """Per-call results (lazy: ``for_call`` views are built on demand)."""
        if self._calls is None:
            self._calls = [
                CachedCallResult(
                    spec=spec,
                    ue_id=spec.resolved_ue_id(),
                    trace=self.trace.for_call(spec.call_id, spec.resolved_ue_id())
                    if self.config.multicall
                    else self.trace,
                    diagnosis=diagnosis,
                )
                for spec, diagnosis in zip(
                    self.config.effective_calls(), self._call_diagnoses
                )
            ]
        return self._calls

    def qoe(self) -> QoeSummary:
        """Fig 7-style QoE aggregation of this run (cell-wide)."""
        return qoe_summary(self.trace.packets, self.trace.frames)

    def call(self, call_id: int) -> CachedCallResult:
        """Look up one call's result by id."""
        for result in self.calls:
            if result.call_id == call_id:
                return result
        raise KeyError(f"no call {call_id} in this session")

    def per_call_qoe(self) -> Dict[int, QoeSummary]:
        """QoE of each call, keyed by call id."""
        return {result.call_id: result.qoe() for result in self.calls}


def _counts_json(diagnosis: Optional["LiveDiagnosis"]) -> Optional[Dict[str, int]]:
    """A live diagnosis feed's cause counts keyed by cause value."""
    if diagnosis is None:
        return None
    return {cause.value: n for cause, n in diagnosis.cause_counts.items()}


def _diagnosis_from_json(value: object) -> Optional[CachedDiagnosis]:
    """Inverse of :func:`_counts_json`; ValueError on anything else."""
    if value is None:
        return None
    if not isinstance(value, dict) or any(type(n) is not int for n in value.values()):
        raise ValueError("cause counts are not a {cause: count} object")
    return CachedDiagnosis(Counter({DelayCause(c): n for c, n in value.items()}))


def cache_entry_from_result(result: "SessionResult") -> Tuple[bytes, bytes]:
    """``(ATHC2 payload, JSON summary)`` for a freshly-simulated run.

    The summary holds only what the config cannot rebuild: the live
    diagnosis cause counts of the session and of each call.
    """
    from ..trace.columnar import encode_payload

    summary = {
        "cause_counts": _counts_json(result.diagnosis),
        "calls": [_counts_json(call.diagnosis) for call in result.calls],
    }
    return encode_payload(result.trace), json.dumps(summary).encode("utf-8")


def rehydrate_result(
    config: ScenarioConfig, payload: bytes, summary_blob: bytes
) -> CachedSessionResult:
    """Rebuild a collector-ready result from one cache entry's bytes.

    Raises :class:`ValueError` when ``summary_blob`` is not a summary this
    layout writes for ``config``: not JSON (an older pickled summary), an
    unknown cause, or a call list whose length is not the config's.
    """
    from ..trace.columnar import trace_from_payload

    summary = json.loads(summary_blob)
    if (
        not isinstance(summary, dict)
        or set(summary) != {"cause_counts", "calls"}
        or not isinstance(summary["calls"], list)
        or len(summary["calls"]) != len(config.effective_calls())
    ):
        raise ValueError("cache summary does not fit this layout and config")
    return CachedSessionResult(
        config=config,
        trace=trace_from_payload(payload),
        diagnosis=_diagnosis_from_json(summary["cause_counts"]),
        call_diagnoses=[_diagnosis_from_json(c) for c in summary["calls"]],
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ScenarioCache:
    """Content-addressed scenario result store with LRU eviction.

    One entry file per fingerprint under ``<dir>/objects/<k[:2]>/<k>``
    (magic + summary/payload lengths + the two blobs), plus an
    ``index.json`` carrying the schema version, the code-version salt, a
    monotone logical ``tick``, and per-entry ``{bytes, tick}``.  A salt or
    schema mismatch discards the whole index — fingerprints embed the salt
    too, so stale entries could never *hit*, but dropping them keeps the
    directory bounded after a code change.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.root = Path(cache_dir)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._tick = 0
        self._entries: Dict[str, Dict[str, int]] = {}
        self._load_index()

    # -- index persistence ---------------------------------------------
    @property
    def index_path(self) -> Path:
        """Location of the JSON index."""
        return self.root / "index.json"

    def _entry_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key

    def _load_index(self) -> None:
        try:
            data = json.loads(self.index_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            data.get("schema") != CACHE_SCHEMA
            or data.get("salt") != code_version_token()
        ):
            # Code changed (or layout did): self-invalidate wholesale.
            self.clear()
            return
        entries = data.get("entries")
        if isinstance(entries, dict):
            self._entries = {
                key: {"bytes": int(entry["bytes"]), "tick": int(entry["tick"])}
                for key, entry in entries.items()
            }
        self._tick = int(data.get("tick", 0))

    def save(self) -> None:
        """Persist the index atomically (best effort on read-only trees)."""
        payload = {
            "schema": CACHE_SCHEMA,
            "salt": code_version_token(),
            "tick": self._tick,
            "entries": self._entries,
        }
        text = json.dumps(payload, sort_keys=True)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix="index", suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp_name, self.index_path)
        except OSError:
            pass

    # -- lookup / store -------------------------------------------------
    def get(self, key: str) -> Optional[Tuple[bytes, bytes]]:
        """``(payload, summary blob)`` for ``key``, or None on miss.

        Any decode failure — missing file, bad magic, truncated blobs —
        drops the entry and reports a miss, so corruption heals by
        re-simulation.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        blobs = self._read_entry(key)
        if blobs is None:
            self._drop_corrupt(key)
            return None
        self.hits += 1
        self._tick += 1
        entry["tick"] = self._tick
        return blobs

    def _drop_corrupt(self, key: str) -> None:
        """Count an unreadable entry as a miss and delete it."""
        self._drop(key)
        self.save()
        self.misses += 1

    def _read_entry(self, key: str) -> Optional[Tuple[bytes, bytes]]:
        try:
            raw = self._entry_path(key).read_bytes()
        except OSError:
            return None
        header = len(_ENTRY_MAGIC) + 16
        if len(raw) < header or raw[: len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
            return None
        summary_len = int.from_bytes(raw[len(_ENTRY_MAGIC): len(_ENTRY_MAGIC) + 8], "big")
        payload_len = int.from_bytes(raw[len(_ENTRY_MAGIC) + 8: header], "big")
        if len(raw) != header + summary_len + payload_len:
            return None
        summary = raw[header: header + summary_len]
        payload = raw[header + summary_len:]
        return payload, summary

    def put(self, key: str, payload: bytes, summary_blob: bytes) -> None:
        """Store one entry atomically, then evict LRU past the size cap."""
        blob = b"".join(
            (
                _ENTRY_MAGIC,
                len(summary_blob).to_bytes(8, "big"),
                len(payload).to_bytes(8, "big"),
                summary_blob,
                payload,
            )
        )
        path = self._entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=key[:8])
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp_name, path)
        except OSError:
            return  # read-only tree: run uncached, don't fail the sweep
        self._tick += 1
        self._entries[key] = {"bytes": len(blob), "tick": self._tick}
        self._evict()
        self.save()

    def _evict(self) -> None:
        """Drop least-recently-used entries until under the size cap."""
        while self.total_bytes > self.max_bytes and self._entries:
            victim = min(self._entries, key=lambda k: self._entries[k]["tick"])
            self._drop(victim)
            self.evictions += 1

    def _drop(self, key: str) -> None:
        self._entries.pop(key, None)
        try:
            self._entry_path(key).unlink()
        except OSError:
            pass

    # -- scenario-level conveniences ------------------------------------
    def get_result(
        self, config: ScenarioConfig, key: Optional[str] = None
    ) -> Optional[CachedSessionResult]:
        """Look up and rehydrate one scenario, or None on miss.

        ``key`` is ``config``'s fingerprint when the caller has it already.
        An entry whose summary does not decode for ``config`` is corrupt:
        it is dropped and counted as a miss, not a hit.
        """
        if key is None:
            key = scenario_fingerprint(config)
        blobs = self.get(key)
        if blobs is None:
            return None
        try:
            return rehydrate_result(config, *blobs)
        except ValueError:
            self.hits -= 1
            self._drop_corrupt(key)
            return None

    def put_result(self, config: ScenarioConfig, result: "SessionResult") -> None:
        """Store one freshly-simulated run under its fingerprint."""
        payload, summary = cache_entry_from_result(result)
        self.put(scenario_fingerprint(config), payload, summary)

    # -- maintenance -----------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Sum of stored entry sizes (per the index)."""
        return sum(entry["bytes"] for entry in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Snapshot for ``athena-repro cache stats`` and sweep reporting."""
        return {
            "dir": str(self.root),
            "entries": len(self._entries),
            "total_bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "salt": code_version_token(),
        }

    def clear(self) -> int:
        """Delete every entry and reset the index; returns entries removed."""
        removed = len(self._entries)
        for key in list(self._entries):
            self._drop(key)
        objects = self.root / "objects"
        if objects.is_dir():
            # Sweep strays from crashed writers / older salts.
            for path in sorted(objects.rglob("*")):
                if path.is_file():
                    try:
                        path.unlink()
                    except OSError:
                        pass
        self._entries = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.save()
        return removed
