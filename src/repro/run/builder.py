"""Session assembly: :func:`run_session` as one fixed pipeline of stages.

:class:`SessionBuilder` assembles a session from five small stages, run in
this order::

    analysis    — the live streaming-analytics tap (when enabled)
    access      — the access network (5G RAN or emulated shaper)
    path        — the WAN/SFU call topology and its telemetry sink
    endpoints   — the VCA sender and receiver (GCC bandwidth estimation)
    mitigations — the §5.2 application-aware scheduling hooks

Each stage reads and extends a :class:`SessionContext`.  Callers that need
the assembled but unstarted session (to drive the simulator themselves)
use :meth:`SessionBuilder.build` and :meth:`SessionBuilder.start`.

**Multi-call cells.**  A :class:`~repro.run.scenario.ScenarioConfig` with a
``calls`` list hosts N concurrent conferences in one cell: every stage
loops over ``ctx.calls``, giving each call its own endpoint stack (sender,
receiver, estimator, adaptation, jitter buffer), its own
:class:`~repro.trace.ids.IdSpace` and named RNG streams
(``call<k>.media``, ``call<k>.path``, …), its own topology attached to a
shared :class:`~repro.net.topology.SfuFanout`, and per-call §5.2/§5.3
mitigation wiring (composed through
:class:`~repro.mitigation.aware_ran.MultiCallAdvisor` when several calls
are app-aware).  The TDD/grant/HARQ fabric — one
:class:`~repro.phy.ran.RanSimulator` — is shared; contention happens in
the scheduler.  With ``calls=None`` (the default) the historical
single-call session is assembled through the *same* loops over a
one-element call list, executing the identical sequence of RNG draws, id
allocations, and event registrations, so for a fixed seed the trace stays
byte-identical to the pre-multicall code.

Every run executes inside its own :class:`~repro.trace.ids.IdSpace`, so
packet/TB/grant/frame ids restart at 1 per session no matter how many runs
the process has already done — a prerequisite for the parallel batch
executor (:mod:`repro.run.batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..app.adaptation import ZoomAdaptationPolicy
from ..app.receiver import VcaReceiver
from ..app.sender import VcaSender
from ..core.streaming.live import LiveDiagnosis
from ..core.streaming.operators import FrameClusterOperator, RootCauseOperator
from ..core.streaming.scoped import CallScopedOperator
from ..core.streaming.tap import AnalysisTap
from ..media.svc import CAPTURE_SLOT_US
from ..mitigation.aware_ran import AppAwareAdvisor, MediaSchedule, MultiCallAdvisor
from ..mitigation.ml_predictor import PeriodicityPredictor
from ..net.links import EmulatedLink
from ..net.topology import CallTopology, EmulatedUplink, RanUplink, SfuFanout
from ..phy.channel import FixedChannel, GaussMarkovChannel, PhasedChannel
from ..phy.crosstraffic import attach_cross_traffic
from ..phy.ran import RanSimulator, nominal_ul_capacity_kbps
from ..sim.engine import Simulator
from ..sim.random import RngStreams
from ..sim.units import ms, seconds
from ..trace.bus import InMemorySink, TraceSink
from ..trace.ids import IdSpace, use_id_space
from ..trace.schema import Trace
from .scenario import CallResult, CallSpec, ScenarioConfig, SessionResult


@dataclass
class CallContext:
    """Per-call state assembled by the pipeline stages.

    ``ids`` is the call's identifier space: a fresh
    :class:`~repro.trace.ids.IdSpace` per call in a multi-call cell, the
    builder's session-wide space for the historical single-call session
    (where components keep drawing from the ambient space exactly as
    before).
    """

    spec: CallSpec
    ue_id: int
    ids: IdSpace
    uplink: Optional[object] = None
    topology: Optional[CallTopology] = None
    sender: Optional[VcaSender] = None
    receiver: Optional[VcaReceiver] = None
    advisor: Optional[AppAwareAdvisor] = None
    predictor: Optional[PeriodicityPredictor] = None
    diagnosis: Optional[LiveDiagnosis] = None


@dataclass
class SessionContext:
    """Mutable state threaded through the pipeline stages.

    ``calls`` always holds one :class:`CallContext` per call — a single
    element for the historical single-call session.
    """

    config: ScenarioConfig
    sim: Simulator
    rngs: RngStreams
    sink: TraceSink
    calls: List[CallContext] = field(default_factory=list)
    ran: Optional[RanSimulator] = None
    #: Shared SFU node fan-out; only set for multi-call cells.
    fanout: Optional[SfuFanout] = None
    #: Set by the ``analysis`` stage when ``config.live_analysis`` is on.
    analysis_tap: Optional[AnalysisTap] = None

    @property
    def multicall(self) -> bool:
        """True when the config declares an explicit ``calls`` axis."""
        return self.config.multicall

    def stream_for(self, call: CallContext, base: str):
        """The call-scoped RNG stream named ``base``.

        Multi-call cells prefix stream names with the call identity
        (``call<k>.media``) so a call's draws never depend on which peers
        share the cell; the single-call session keeps the historical bare
        names (``media``) so its draw sequence is unchanged.
        """
        if not self.multicall:
            return self.rngs.stream(base)
        return self.rngs.stream(f"call{call.spec.call_id}.{base}")


def make_channel(ctx: SessionContext, call: CallContext) -> object:
    """Build one call's radio channel from its (inherited) spec.

    Scripted ``channel_phases`` win over the named model; the Gauss-Markov
    channel draws from the UE-scoped stream ``channel.ue<ue_id>``.
    """
    phases = call.spec.inherit(ctx.config, "channel_phases")
    if phases is not None:
        return PhasedChannel(phases)
    ran = ctx.config.ran
    if call.spec.inherit(ctx.config, "channel") == "gauss_markov":
        return GaussMarkovChannel(
            ctx.rngs.stream(f"channel.ue{call.ue_id}"),
            target_bler=ran.base_bler,
        )
    return FixedChannel(ran.default_mcs, ran.base_bler)


# ----------------------------------------------------------------------
# Pipeline stages
# ----------------------------------------------------------------------
def _stage_analysis(ctx: SessionContext) -> None:
    config = ctx.config
    if not config.live_analysis:
        return
    # Operator order is tap delivery order: root causes, then clusters.
    # Only operators whose output something reads are attached; the TB
    # correlator has no live reader (replay_trace and
    # correlate_tbs_to_packets still give the correlation offline).
    operators = []
    for call in ctx.calls:
        diagnosis = call.diagnosis = LiveDiagnosis()
        call_ops: List[object] = [
            RootCauseOperator(
                retain_results=False,
                on_breakdown=diagnosis.on_breakdown,
                on_diagnosis=diagnosis.on_diagnosis,
            ),
            FrameClusterOperator(
                retain_results=False, on_cluster=diagnosis.on_cluster
            ),
        ]
        if ctx.multicall:
            call_ops = [
                CallScopedOperator(op, call.spec.call_id, call.ue_id)
                for op in call_ops
            ]
        operators.extend(call_ops)
    tap = AnalysisTap(operators, inner=ctx.sink)
    ctx.analysis_tap = tap
    # Later stages (RAN, topology, endpoints) capture ctx.sink at build
    # time, so every telemetry record now flows through the tap.
    ctx.sink = tap


def _stage_access_5g(ctx: SessionContext) -> None:
    config = ctx.config
    ran = RanSimulator(
        ctx.sim,
        config.ran,
        ctx.rngs,
        record_tb_window=config.record_tb_window,
        record_grants=config.record_grants,
        sink=ctx.sink,
    )
    for call in ctx.calls:
        channel = make_channel(ctx, call)
        ran.add_ue(
            call.ue_id,
            channel=channel,
            # spec.proactive=False opts the UE out; True defers to the
            # RanConfig default, matching the historical add_ue call.
            proactive=None if call.spec.proactive else False,
            record_tbs=call.spec.inherit(config, "record_tbs"),
        )
        call.uplink = RanUplink(ran, call.ue_id)
    if config.cross_traffic is not None:
        attach_cross_traffic(
            ctx.sim,
            ran,
            config.cross_traffic,
            ctx.rngs.stream("cross"),
            first_ue_id=config.cross_traffic_first_ue_id(),
        )
    ctx.ran = ran


def _stage_access_emulated(ctx: SessionContext) -> None:
    config = ctx.config
    rate_kbps = config.emulated_rate_kbps
    if rate_kbps <= 0 and config.emulated_capacity_series is None:
        # The paper sizes the tc baseline from the cell's TB capacity;
        # derived from the RanConfig alone, no throwaway simulator.
        rate_kbps = nominal_ul_capacity_kbps(config.ran)
    # One shaper models the cell: N calls contend for the same token
    # bucket, mirroring how the RAN path shares one scheduler.
    link = EmulatedLink(
        ctx.sim,
        rate_kbps=rate_kbps,
        latency_us=config.emulated_latency_us,
        capacity_series=config.emulated_capacity_series,
    )
    for call in ctx.calls:
        call.uplink = EmulatedUplink(link)


def _stage_path(ctx: SessionContext) -> None:
    config = ctx.config
    if ctx.multicall:
        ctx.fanout = SfuFanout(ctx.sim, ctx.rngs.stream("sfu"), config.path)
    for call in ctx.calls:
        assert call.uplink is not None, "access stage must run before path"
        topology = CallTopology(
            ctx.sim,
            call.uplink,
            rng=ctx.stream_for(call, "path"),
            config=config.path,
            ran_for_feedback=ctx.ran,
            feedback_ue_id=call.ue_id if ctx.ran is not None else None,
            sink=ctx.sink,
            call_id=call.spec.call_id if ctx.multicall else None,
            ids=call.ids if ctx.multicall else None,
            sfu=ctx.fanout.sfu if ctx.fanout is not None else None,
        )
        if ctx.fanout is not None:
            ctx.fanout.attach(topology)
        call.topology = topology


def _stage_endpoints(ctx: SessionContext) -> None:
    config = ctx.config
    for call in ctx.calls:
        spec = call.spec
        assert call.topology is not None, "path stage must run before endpoints"
        sender = VcaSender(
            ctx.sim,
            call.topology,
            ctx.stream_for(call, "media"),
            policy=ZoomAdaptationPolicy(spec.inherit(config, "adaptation")),
            fixed_mode=spec.inherit(config, "fixed_mode"),
            fixed_bitrate_kbps=spec.inherit(config, "fixed_bitrate_kbps"),
            call_id=spec.call_id if ctx.multicall else None,
            ids=call.ids if ctx.multicall else None,
        )
        receiver = VcaReceiver(
            ctx.sim,
            call.topology,
            sender.frames_by_id,
            mask_ran_delay=spec.inherit(config, "mask_ran_delay"),
            jitter_buffer_margin_us=ms(
                spec.inherit(config, "jitter_buffer_margin_ms")
            ),
            jitter_buffer_beta=spec.inherit(config, "jitter_buffer_beta"),
            diagnosis=call.diagnosis,
            ids=call.ids if ctx.multicall else None,
        )
        call.sender = sender
        call.receiver = receiver


def _register_metadata_refresh(
    sim: Simulator,
    ran: RanSimulator,
    sender: VcaSender,
    schedule: MediaSchedule,
) -> None:
    """§5.2 metadata path: the app announces its frame clock and keeps the
    size estimate fresh (the periodically-updated RTP extension)."""
    from ..media.svc import frame_period_us, nominal_fps

    def refresh_from_app() -> None:
        schedule.frame_period_us = frame_period_us(sender.mode)
        schedule.frame_size_bytes = int(
            sender.encoder.target_bitrate_kbps
            * 1_000 / 8 / nominal_fps(sender.mode)
        )
        schedule.advance_to(sim.now)
        ran.advisor_changed()

    sim.every(ms(100.0), refresh_from_app)


def _stage_mitigations(ctx: SessionContext) -> None:
    config = ctx.config
    ran, sim = ctx.ran, ctx.sim
    if ran is None:
        return
    # Pass 1: one MediaSchedule + AppAwareAdvisor per app-aware call, then
    # install the (possibly composite) advisor — before the refresh timers,
    # preserving the historical event-registration order for one call.
    aware: List[tuple] = []
    for call in ctx.calls:
        spec = call.spec
        learned = spec.inherit(config, "aware_ran_learned")
        if not (spec.inherit(config, "aware_ran") or learned):
            continue
        sender = call.sender
        assert sender is not None, "endpoints stage must run before mitigations"
        schedule = MediaSchedule(
            next_frame_us=0,
            frame_period_us=CAPTURE_SLOT_US,
            frame_size_bytes=int(
                sender.encoder.target_bitrate_kbps * 1_000 / 8 / 28.0
            ),
        )
        call.advisor = AppAwareAdvisor(
            config.ran,
            ran.tdd,
            call.ue_id,
            schedule,
            suppress_proactive_grants=config.aware_ran_suppress_proactive,
        )
        aware.append((call, schedule, learned))
    if not aware:
        return
    if len(aware) == 1:
        ran.set_grant_advisor(aware[0][0].advisor)
    else:
        ran.set_grant_advisor(
            MultiCallAdvisor([call.advisor for call, _, _ in aware])
        )
    # Pass 2: per-call schedule-refresh wiring (learned or metadata path).
    for call, schedule, learned in aware:
        if learned:
            predictor = PeriodicityPredictor()
            call.predictor = predictor
            if call.diagnosis is not None:
                # Train on the streaming clusterer's closed-burst feed:
                # bursts are pre-separated from audio, so no per-packet
                # thresholding.
                call.diagnosis.add_burst_listener(predictor.observe_burst)
            else:
                assert call.topology is not None
                call.topology.media_send_listeners.append(
                    lambda packet, t, p=predictor: p.observe(t, packet.size_bytes)
                )

            def refresh_learned(p=predictor, s=schedule) -> None:
                p.refresh_schedule(s, sim.now)
                ran.advisor_changed()

            sim.every(ms(500.0), refresh_learned)
        else:
            assert call.sender is not None
            _register_metadata_refresh(sim, ran, call.sender, schedule)


# ----------------------------------------------------------------------
# The builder
# ----------------------------------------------------------------------
class SessionBuilder:
    """Assemble and run one cell session (one or many calls) from stages.

    ``SessionBuilder(config).run()`` is exactly ``run_session``.  Pass
    ``sink`` to see the telemetry on its way in (e.g. an
    :class:`~repro.core.streaming.tap.AnalysisTap` wrapping an
    :class:`~repro.trace.bus.InMemorySink`).
    """

    def __init__(
        self,
        config: ScenarioConfig,
        sink: Optional[TraceSink] = None,
    ) -> None:
        self.config = config
        self.sink = sink if sink is not None else InMemorySink(Trace())
        #: Session-wide id allocation (RAN TBs/grants, cross traffic);
        #: fresh ids regardless of prior runs.  Multi-call cells give each
        #: call an additional private IdSpace for its endpoint records.
        self.id_space = IdSpace()

    # ------------------------------------------------------------------
    def build(self) -> SessionContext:
        """Run the five stages; return the assembled (unstarted) session.

        Callers that drive the simulator themselves should wrap the build
        *and* the run in ``use_id_space(builder.id_space)`` — :meth:`run`
        does this for them.
        """
        config = self.config
        metadata = {
            "access": config.access,
            "duration_s": config.duration_s,
            "seed": config.seed,
        }
        if config.multicall:
            metadata["n_calls"] = len(config.effective_calls())
        self.sink.set_metadata(metadata)
        ctx = SessionContext(
            config=config,
            sim=Simulator(),
            rngs=RngStreams(config.seed),
            sink=self.sink,
        )
        ctx.calls = [
            CallContext(
                spec=spec,
                ue_id=spec.resolved_ue_id(),
                ids=IdSpace() if config.multicall else self.id_space,
            )
            for spec in config.effective_calls()
        ]
        # Order matters: the simulator breaks event-time ties by insertion
        # order, so reordering stages changes the run (and would break
        # trace reproducibility against older versions).  The analysis
        # stage runs first because it may wrap ``ctx.sink`` in an
        # AnalysisTap that every later stage must capture; it registers no
        # simulator events, so it leaves the trace byte-identical.
        _stage_analysis(ctx)
        if config.access == "5g":
            _stage_access_5g(ctx)
        else:
            _stage_access_emulated(ctx)
        _stage_path(ctx)
        _stage_endpoints(ctx)
        _stage_mitigations(ctx)
        return ctx

    def start(self, ctx: SessionContext) -> None:
        """Start every call's endpoint clocks, prober, and time sync.

        Calls with ``start_media=False`` register nothing — a parked
        zero-demand peer neither draws RNG values nor consumes grants, so
        its presence leaves the other calls' traces untouched.
        """
        config = self.config
        for call in ctx.calls:
            if not call.spec.start_media:
                continue
            assert call.sender is not None and call.receiver is not None
            assert call.topology is not None
            call.sender.start()
            call.receiver.start()
            if call.spec.inherit(config, "start_prober"):
                call.topology.start_prober()
        if config.time_sync:
            self.sink.set_metadata(
                {"clock_offsets_us": dict(config.path.clock_offsets_us)}
            )
            for call in ctx.calls:
                if not call.spec.start_media or call.topology is None:
                    continue
                call.topology.start_time_sync(ctx.stream_for(call, "timesync"))

    def run(self) -> SessionResult:
        """Build, run, and return one complete cell session."""
        with use_id_space(self.id_space):
            ctx = self.build()
            self.start(ctx)
            ctx.sim.run_until(seconds(self.config.duration_s))
        # ctx.sink is the AnalysisTap when live analysis ran; closing it
        # drains the operators and then closes the wrapped sink.
        ctx.sink.close()
        session_trace = ctx.sink.result_trace()
        if session_trace is None:
            raise ValueError("the session sink keeps no Trace")
        call_results: List[CallResult] = []
        for call in ctx.calls:
            call_trace = (
                session_trace.for_call(call.spec.call_id, call.ue_id)
                if ctx.multicall
                else session_trace
            )
            call_results.append(
                CallResult(
                    spec=call.spec,
                    ue_id=call.ue_id,
                    trace=call_trace,
                    sender=call.sender,
                    receiver=call.receiver,
                    topology=call.topology,
                    advisor=call.advisor,
                    predictor=call.predictor,
                    diagnosis=call.diagnosis,
                )
            )
        first = ctx.calls[0]
        assert first.sender is not None and first.receiver is not None
        assert first.topology is not None
        return SessionResult(
            config=self.config,
            trace=session_trace,
            sim=ctx.sim,
            sender=first.sender,
            receiver=first.receiver,
            topology=first.topology,
            ran=ctx.ran,
            advisor=first.advisor,
            predictor=first.predictor,
            diagnosis=first.diagnosis,
            analysis=dict(ctx.analysis_tap.results)
            if ctx.analysis_tap is not None
            else {},
            calls=call_results,
        )


def run_session(config: ScenarioConfig) -> SessionResult:
    """Build, run, and return one complete call session.

    The classic entry point, now a thin facade over :class:`SessionBuilder`.
    """
    return SessionBuilder(config).run()
