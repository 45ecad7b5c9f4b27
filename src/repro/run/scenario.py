"""Scenario description and session outputs: the runner's data contract.

A :class:`ScenarioConfig` is everything needed to reproduce one experiment
run; a :class:`SessionResult` is what a finished run hands to Athena and
the QoE metrics.  Both lived in :mod:`repro.app.session` historically and
stay importable from there; the definitions moved here so the composable
runner (:mod:`repro.run.builder`) and the batch executor
(:mod:`repro.run.batch`) can use them without importing the monolithic
session module.

``KNOWN_ACCESS`` and ``KNOWN_CHANNELS`` are the closed sets of access and
channel kinds that :meth:`ScenarioConfig.__post_init__` accepts; the
builder assembles exactly these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from ..app.adaptation import AdaptationConfig
from ..media.quality import QoeSummary, qoe_summary
from ..media.svc import FpsMode
from ..net.topology import PathConfig
from ..phy.params import CrossTrafficConfig, RanConfig
from ..sim.units import TimeUs, ms
from ..trace.schema import Trace

if TYPE_CHECKING:  # import cycle: app endpoints import the topology/trace
    from ..app.receiver import VcaReceiver
    from ..app.sender import VcaSender
    from ..core.streaming.live import LiveDiagnosis
    from ..mitigation.aware_ran import AppAwareAdvisor
    from ..mitigation.ml_predictor import PeriodicityPredictor
    from ..net.topology import CallTopology
    from ..phy.ran import RanSimulator
    from ..sim.engine import Simulator

#: The UE carrying the (first) monitored call; call ``k`` defaults to UE
#: ``MONITORED_UE_ID + k`` and cross traffic numbers above every call.
MONITORED_UE_ID = 1

#: Access kinds the scenario validator accepts.
KNOWN_ACCESS: FrozenSet[str] = frozenset({"5g", "emulated"})

#: Channel-model kinds the scenario validator accepts.  ``channel_phases``
#: overrides the named model when set.
KNOWN_CHANNELS: FrozenSet[str] = frozenset({"fixed", "gauss_markov"})


def _lists_to_tuples(config: object, names: Tuple[str, ...]) -> None:
    """Store any list passed for the ``names`` fields of a frozen config as
    a tuple, so callers may keep passing lists."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, list):
            object.__setattr__(config, name, tuple(value))


@dataclass(frozen=True)
class CallSpec:
    """One conferencing call hosted by the cell.

    Every ``Optional`` field defaults to *inherit from the scenario*: a bare
    ``CallSpec(call_id=k)`` clones the scenario-level call settings, so a
    homogeneous N-call cell is ``calls=[CallSpec(call_id=i) for i in
    range(N)]``.  ``start_media=False`` attaches the call's full endpoint
    stack without starting its clocks — a zero-demand peer occupying a UE
    context, used by the RNG/id-isolation determinism tests.

    Frozen, like every config reachable from a :class:`ScenarioConfig`: the
    scenario cache fingerprints a config when a run starts, so a variant is
    made with :func:`dataclasses.replace`, never by assignment.
    """

    call_id: int = 0
    #: UE carrying this call; defaults to ``MONITORED_UE_ID + call_id``.
    ue_id: Optional[int] = None
    adaptation: Optional[AdaptationConfig] = None
    channel: Optional[str] = None
    channel_phases: Optional[Tuple[Tuple[TimeUs, int, float], ...]] = None
    fixed_mode: Optional[FpsMode] = None
    fixed_bitrate_kbps: Optional[float] = None
    mask_ran_delay: Optional[bool] = None  # §5.3, per call
    aware_ran: Optional[bool] = None  # §5.2 metadata path, per call
    aware_ran_learned: Optional[bool] = None  # §5.2 learning path, per call
    jitter_buffer_margin_ms: Optional[float] = None
    jitter_buffer_beta: Optional[float] = None
    record_tbs: Optional[bool] = None
    start_prober: Optional[bool] = None
    #: Grant this UE the cell's proactive allocation when idle.
    proactive: bool = True
    #: Start the sender/receiver clocks (False = silent zero-demand peer).
    start_media: bool = True

    def __post_init__(self) -> None:
        _lists_to_tuples(self, ("channel_phases",))

    def resolved_ue_id(self) -> int:
        """The UE id this call attaches as."""
        return self.ue_id if self.ue_id is not None else MONITORED_UE_ID + self.call_id

    def inherit(self, config: "ScenarioConfig", name: str) -> object:
        """Per-call override of scenario field ``name``, or the inherited value."""
        value = getattr(self, name)
        return getattr(config, name) if value is None else value


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment run.

    Frozen, with tuples for its sequence fields (a passed list is stored as
    a tuple): a variant is ``dataclasses.replace(config, ...)``.
    """

    duration_s: float = 60.0
    seed: int = 7
    access: str = "5g"  # "5g" | "emulated"
    ran: RanConfig = field(default_factory=RanConfig)
    channel: str = "fixed"  # "fixed" | "gauss_markov"
    cross_traffic: Optional[CrossTrafficConfig] = None
    path: PathConfig = field(default_factory=PathConfig)
    emulated_rate_kbps: float = 0.0  # 0 = use nominal RAN capacity
    emulated_latency_us: TimeUs = ms(15.0)
    # Optional (start_us, kbps) series replayed by the emulated shaper — the
    # paper's "capacity calculated from the physical transport block sizes".
    emulated_capacity_series: Optional[Tuple[Tuple[TimeUs, float], ...]] = None
    # Scripted (start_us, mcs, bler) phases for the monitored UE's channel;
    # overrides ``channel`` when set (mobility episodes, Fig 8).
    channel_phases: Optional[Tuple[Tuple[TimeUs, int, float], ...]] = None
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    fixed_mode: Optional[FpsMode] = None
    fixed_bitrate_kbps: Optional[float] = None
    mask_ran_delay: bool = False  # §5.3 mitigation
    aware_ran: bool = False  # §5.2 mitigation (metadata path)
    aware_ran_learned: bool = False  # §5.2 mitigation (learning path)
    aware_ran_suppress_proactive: bool = True
    record_tbs: bool = True
    record_tb_window: Optional[Tuple[TimeUs, TimeUs]] = None
    record_grants: bool = False
    start_prober: bool = True
    time_sync: bool = False  # record NTP-style exchanges for offline sync
    # Run the streaming operators live on the telemetry bus: an AnalysisTap
    # wraps the sink and a LiveDiagnosis feed drives the mitigations.
    live_analysis: bool = False
    jitter_buffer_margin_ms: float = 10.0  # receiver playout margin
    jitter_buffer_beta: float = 4.0  # jitter multiplier in the playout target
    #: Concurrent calls hosted by the cell.  ``None`` (the default) is the
    #: historical single-call session: one implicit call on
    #: ``MONITORED_UE_ID`` built from the scenario-level fields, with
    #: byte-identical traces.  A sequence switches the builder to multi-call
    #: assembly: per-call endpoint stacks, id spaces, RNG streams, and
    #: call-tagged trace records.
    calls: Optional[Tuple[CallSpec, ...]] = None

    def __post_init__(self) -> None:
        _lists_to_tuples(
            self, ("calls", "channel_phases", "emulated_capacity_series")
        )
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive: {self.duration_s}")
        if self.jitter_buffer_beta < 0:
            raise ValueError(
                f"jitter_buffer_beta must be >= 0: {self.jitter_buffer_beta}"
            )
        if self.access not in KNOWN_ACCESS:
            raise ValueError(f"unknown access type: {self.access}")
        if self.channel not in KNOWN_CHANNELS:
            raise ValueError(f"unknown channel model: {self.channel}")
        if self.aware_ran and self.aware_ran_learned:
            raise ValueError("choose metadata OR learned app-aware scheduling")
        if self.calls is not None:
            self._validate_calls()

    def _validate_calls(self) -> None:
        calls = self.calls
        assert calls is not None
        if not calls:
            raise ValueError("calls must name at least one CallSpec")
        call_ids = [spec.call_id for spec in calls]
        if len(set(call_ids)) != len(call_ids):
            raise ValueError(f"duplicate call ids: {sorted(call_ids)}")
        if any(cid < 0 for cid in call_ids):
            raise ValueError(f"call ids must be non-negative: {sorted(call_ids)}")
        ue_ids = [spec.resolved_ue_id() for spec in calls]
        if len(set(ue_ids)) != len(ue_ids):
            raise ValueError(f"calls must attach distinct UEs: {sorted(ue_ids)}")
        if any(ue < 1 for ue in ue_ids):
            raise ValueError(f"UE ids must be positive: {sorted(ue_ids)}")
        for spec in calls:
            if spec.channel is not None and spec.channel not in KNOWN_CHANNELS:
                raise ValueError(
                    f"call {spec.call_id}: unknown channel model: {spec.channel}"
                )
            if spec.inherit(self, "aware_ran") and spec.inherit(
                self, "aware_ran_learned"
            ):
                raise ValueError(
                    f"call {spec.call_id}: choose metadata OR learned "
                    "app-aware scheduling"
                )
            beta = spec.inherit(self, "jitter_buffer_beta")
            if beta < 0:  # type: ignore[operator]
                raise ValueError(
                    f"call {spec.call_id}: jitter_buffer_beta must be >= 0: "
                    f"{beta}"
                )

    @property
    def multicall(self) -> bool:
        """Whether this scenario uses explicit multi-call assembly."""
        return self.calls is not None

    def effective_calls(self) -> List[CallSpec]:
        """The call list, with the historical single call as the default."""
        if self.calls is not None:
            return list(self.calls)
        return [CallSpec(call_id=0, ue_id=MONITORED_UE_ID)]

    def cross_traffic_first_ue_id(self) -> int:
        """First UE id for cross-traffic mobiles: above every call's UE.

        Single-call scenarios keep the historical 100; a multi-call cell
        whose calls reach into that range pushes cross traffic higher so
        the numbering can never collide.
        """
        top = max(spec.resolved_ue_id() for spec in self.effective_calls())
        return max(100, top + 1)


@dataclass
class CallResult:
    """One call's slice of a finished session."""

    spec: CallSpec
    ue_id: int
    trace: Trace  # per-call view (records shared with the session trace)
    sender: "VcaSender"
    receiver: "VcaReceiver"
    topology: "CallTopology"
    advisor: Optional["AppAwareAdvisor"] = None
    predictor: Optional["PeriodicityPredictor"] = None
    diagnosis: Optional["LiveDiagnosis"] = None

    @property
    def call_id(self) -> int:
        """Identifier of this call within the cell."""
        return self.spec.call_id

    def qoe(self) -> QoeSummary:
        """Fig 7-style QoE aggregation of this call alone."""
        return qoe_summary(self.trace.packets, self.trace.frames)


@dataclass
class SessionResult:
    """Outputs of one run, ready for Athena and the QoE metrics.

    ``sender``/``receiver``/``topology`` and the mitigation handles refer to
    call 0 (the historical single monitored call); a multi-call cell's full
    per-call results live in :attr:`calls`, and the trace/QoE accessors on
    the session itself aggregate at cell level.
    """

    config: ScenarioConfig
    trace: Trace
    sim: "Simulator"
    sender: "VcaSender"
    receiver: "VcaReceiver"
    topology: "CallTopology"
    ran: Optional["RanSimulator"]
    advisor: Optional["AppAwareAdvisor"] = None
    predictor: Optional["PeriodicityPredictor"] = None
    #: The live cross-layer feed (populated when ``live_analysis`` was on).
    #: Call 0's feed in a multi-call cell.
    diagnosis: Optional["LiveDiagnosis"] = None
    #: Final operator results from the live AnalysisTap, keyed by name.
    analysis: Dict[str, object] = field(default_factory=dict)
    #: Per-call results, in call-list order (one entry for legacy sessions).
    calls: List[CallResult] = field(default_factory=list)

    def qoe(self) -> QoeSummary:
        """Fig 7-style QoE aggregation of this run (cell-wide)."""
        return qoe_summary(self.trace.packets, self.trace.frames)

    def call(self, call_id: int) -> CallResult:
        """Look up one call's result by id."""
        for result in self.calls:
            if result.call_id == call_id:
                return result
        raise KeyError(f"no call {call_id} in this session")

    def per_call_qoe(self) -> Dict[int, QoeSummary]:
        """QoE of each call, keyed by call id."""
        return {result.call_id: result.qoe() for result in self.calls}
