"""Batch ↔ streaming equivalence and watermark edge cases (ISSUE 7).

The batch entry points are replays over the streaming operators, so the
load-bearing guarantees are:

* operators fed *live* through an :class:`AnalysisTap` on the session bus
  (finite lateness, out-of-event-order finalizations) produce results
  identical to the batch functions over the recorded trace;
* the live mitigation feed (`LiveDiagnosis`) changes no trace byte;
* watermark eviction handles late/out-of-order records at the boundary.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import tracemalloc

import pytest

from repro.core import (
    analyze_root_causes,
    correlate_packets_to_frames,
    correlate_tbs_to_packets,
    estimate_host_offsets,
)
from repro.core.streaming import (
    AnalysisTap,
    FrameClusterOperator,
    RootCauseOperator,
    StreamingReportOperator,
    SyncOffsetOperator,
    TbPacketCorrelator,
    TimeOrderedOperator,
    record_event_time,
    replay_file,
    replay_trace,
)
from repro.core.streaming.live import DEFAULT_TRACKED_PACKETS
from repro.run.builder import SessionBuilder, run_session
from repro.run.scenario import MONITORED_UE_ID, CallSpec, ScenarioConfig
from repro.sim.units import ms, seconds
from repro.trace.bus import CHANNEL_FIELDS, InMemorySink
from repro.trace.ids import use_id_space
from repro.trace.columnar import ChannelStore
from repro.trace.io import encode_jsonl_batch, load_trace, save_trace
from repro.trace.schema import CapturePoint, MediaKind, PacketRecord, Trace

#: Ceiling on a streaming pass's peak traced memory, as a fraction of
#: loading the whole trace.
STREAMING_MAX_PEAK_RATIO = 0.8


def _save_in_event_time_order(trace: Trace, path) -> None:
    """Write ``trace`` as tagged JSONL with the channels interleaved.

    Lines follow :func:`record_event_time` across all channels (stable, so
    ties keep family order), the order a capture tool writes them, instead
    of ``save_trace``'s one-family-after-another grouping.
    """
    lines = []
    for channel, attr in CHANNEL_FIELDS.items():
        records = getattr(trace, attr)
        store = ChannelStore(channel, records)
        rows = store.json_rows(0, store.rows, type_tag=channel)
        lines.extend(
            (record_event_time(channel, record), row)
            for record, row in zip(records, rows)
        )
    lines.sort(key=lambda item: item[0])
    rows = [{"type": "meta", **trace.metadata}, *(row for _, row in lines)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode_jsonl_batch(rows))


def _live_tap_results(config: ScenarioConfig):
    """Run a session with operators attached live to the telemetry bus."""
    operators = [
        FrameClusterOperator(),
        RootCauseOperator(),
    ]
    if config.access == "5g" and config.record_tbs:
        operators.append(TbPacketCorrelator(MONITORED_UE_ID))
    if config.time_sync:
        operators.append(SyncOffsetOperator())
    tap = AnalysisTap(operators, inner=InMemorySink(Trace()))
    result = SessionBuilder(config, sink=tap).run()
    return tap.results, result.trace


class TestLiveBatchEquivalence:
    """Live tap (finite lateness) equals batch replay, per seed × access."""

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("access", ["5g", "emulated"])
    def test_results_identical(self, seed, access):
        config = ScenarioConfig(
            duration_s=2.0,
            seed=seed,
            access=access,
            record_tbs=access == "5g",
            time_sync=True,
        )
        results, trace = _live_tap_results(config)

        assert results["clusters"] == correlate_packets_to_frames(trace)
        assert results["root_causes"] == analyze_root_causes(trace)
        assert results["sync"] == estimate_host_offsets(trace)
        if access == "5g":
            assert results["correlation"] == correlate_tbs_to_packets(
                trace, MONITORED_UE_ID
            )

    def test_streaming_report_over_live_file_matches_replay(self, tmp_path):
        """analyze's operator gives one answer live and from the file."""
        path = tmp_path / "live.jsonl"
        config = ScenarioConfig(duration_s=2.0, seed=5)
        live = StreamingReportOperator()
        tap = AnalysisTap([live], inner=InMemorySink(Trace()))
        save_trace(SessionBuilder(config, sink=tap).run().trace, path)

        offline = replay_file(str(path), [StreamingReportOperator()])["report"]
        assert live.record_counts == offline.record_counts
        assert live.qoe_medians() == offline.qoe_medians()
        assert live.grant_efficiency() == offline.grant_efficiency()


class TestLiveSessionPath:
    """config.live_analysis: builder wiring and trace transparency."""

    def test_live_analysis_changes_no_trace_byte(self, tmp_path):
        paths = []
        for live in (False, True):
            config = ScenarioConfig(
                duration_s=2.0, seed=21, mask_ran_delay=True,
                live_analysis=live,
            )
            result = run_session(config)
            path = tmp_path / f"live_{live}.jsonl"
            save_trace(result.trace, path)
            paths.append(path)
        assert filecmp.cmp(paths[0], paths[1], shallow=False)

    @pytest.mark.parametrize("overrides, expected", [
        ({}, ["root_causes", "clusters"]),
        ({"access": "emulated"}, ["root_causes", "clusters"]),
        (
            {"calls": [CallSpec(call_id=0),
                       CallSpec(call_id=1, record_tbs=False)]},
            ["root_causes.call0", "clusters.call0",
             "root_causes.call1", "clusters.call1"],
        ),
    ], ids=["5g", "emulated", "two-call"])
    def test_live_operators_attach_in_fixed_order(self, overrides, expected):
        # Operator order is tap delivery order; the TB correlator has no
        # live reader, so it is not attached.
        result = run_session(
            ScenarioConfig(duration_s=1.0, seed=9, live_analysis=True,
                           **overrides)
        )
        assert list(result.analysis) == expected

    def test_live_session_populates_diagnosis(self):
        result = run_session(
            ScenarioConfig(duration_s=2.0, seed=9, live_analysis=True)
        )
        diagnosis = result.diagnosis
        assert diagnosis is not None
        assert diagnosis.packets_seen > 0
        assert diagnosis.bursts_seen > 0
        assert sum(diagnosis.cause_counts.values()) > 0
        assert diagnosis.tracked_packet_count() <= DEFAULT_TRACKED_PACKETS

    def test_learned_grants_train_from_burst_feed(self):
        result = run_session(
            ScenarioConfig(
                duration_s=2.0, seed=9,
                aware_ran_learned=True, live_analysis=True,
            )
        )
        predictor = result.predictor
        assert predictor is not None
        assert predictor.bursts_observed > 0
        assert predictor.estimate() is not None

    def test_streaming_pass_peaks_below_loading_the_trace(self, tmp_path):
        """analyze's single pass holds a watermark window, not the trace.

        Peak traced memory of one streaming pass over a time-interleaved
        file stays at or below 0.8x of ``load_trace`` on the same file (the
        batch baseline).  The ratio grows more favourable with trace
        length; 6 simulated seconds keep it honest at test speed.
        """
        path = tmp_path / "peak.jsonl"
        result = run_session(
            ScenarioConfig(duration_s=6.0, seed=7, live_analysis=True)
        )
        _save_in_event_time_order(result.trace, path)
        tracemalloc.start()
        try:
            trace = load_trace(path)
            batch_peak = tracemalloc.get_traced_memory()[1]
            del trace
            tracemalloc.reset_peak()
            replay_file(str(path), [StreamingReportOperator()],
                        lateness_us=ms(500.0))
            stream_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream_peak <= STREAMING_MAX_PEAK_RATIO * batch_peak


class TestWatermarkEdgeCases:
    def _packet(self, pid, send_us, size=1_000):
        record = PacketRecord(
            packet_id=pid, flow_id="t", kind=MediaKind.VIDEO,
            size_bytes=size,
        )
        record.captures["sender"] = send_us
        return record

    def test_heap_releases_in_event_order(self):
        class Probe(TimeOrderedOperator):
            channels = ("packet",)
            name = "probe"

            def __init__(self):
                super().__init__()
                self.seen = []

            def record_key(self, channel, record):
                return record.captures["sender"]

            def process(self, channel, record):
                self.seen.append(record.packet_id)

        op = Probe()
        # Delivered out of event order; watermark 30_000 releases 1 and 2
        # (strictly below), in event order despite arrival order.
        op.on_record("packet", self._packet(2, 20_000))
        op.on_record("packet", self._packet(1, 10_000))
        op.on_record("packet", self._packet(3, 30_000))
        op.on_watermark(30_000)
        assert op.seen == [1, 2]
        assert op.buffered_count() == 1
        op.finish()
        assert op.seen == [1, 2, 3]

    def test_record_later_than_lateness_still_processed(self):
        class Probe(TimeOrderedOperator):
            channels = ("packet",)
            name = "probe"

            def __init__(self):
                super().__init__()
                self.seen = []

            def record_key(self, channel, record):
                return record.captures["sender"]

            def process(self, channel, record):
                self.seen.append(record.packet_id)

        op = Probe()
        op.on_record("packet", self._packet(1, 50_000))
        op.on_watermark(100_000)
        # A straggler below the already-advanced watermark is released on
        # the next advance rather than silently dropped.
        op.on_record("packet", self._packet(2, 40_000))
        op.on_watermark(100_000)
        assert op.seen == [1, 2]

    def test_unseen_gating_channel_stalls_watermark(self):
        op = TbPacketCorrelator(MONITORED_UE_ID)
        tap = AnalysisTap([op], lateness_us=ms(10.0), advance_every_us=0)
        # Packets only: the tb channel never produces, so no watermark may
        # advance (a TB at any slot could still arrive) and everything
        # stays buffered until close.
        for pid in range(1, 6):
            tap.emit(self._packet(pid, pid * 100_000))
        assert op.buffered_count() == 5
        tap.close()
        assert op.buffered_count() == 0
        assert tap.results["correlation"].unmatched_packets == [1, 2, 3, 4, 5]

    def test_retention_must_cover_settle(self):
        with pytest.raises(ValueError):
            RootCauseOperator(settle_after_us=ms(500.0),
                              retention_us=ms(100.0))

    def test_bounded_mode_evicts_but_diagnoses_equal(self):
        """retain_results=False on an interleaved live feed loses nothing."""
        config = ScenarioConfig(duration_s=2.0, seed=13)
        diagnoses = []
        bounded = RootCauseOperator(
            retain_results=False, on_diagnosis=diagnoses.append
        )
        tap = AnalysisTap([bounded], inner=InMemorySink(Trace()))
        result = SessionBuilder(config, sink=tap).run()

        batch = analyze_root_causes(result.trace)
        assert diagnoses == batch.frame_diagnoses
        assert bounded.result().cause_counts == batch.cause_counts
        # The bounded index was actually evicted below trace size.
        assert bounded.index_size() < len(result.trace.packets)

    def test_family_grouped_file_stalls_instead_of_misevicting(self, tmp_path):
        """save_trace files (all packets, then TBs, ...) replay correctly
        even under a finite lateness: per-channel stall-until-seen keeps
        the watermark held back until every gating family has appeared."""
        path = tmp_path / "grouped.jsonl"
        result = run_session(ScenarioConfig(duration_s=2.0, seed=4))
        save_trace(result.trace, path)
        results = replay_file(
            str(path),
            [RootCauseOperator(), TbPacketCorrelator(MONITORED_UE_ID)],
            lateness_us=ms(50.0),
        )
        assert results["root_causes"] == analyze_root_causes(result.trace)
        assert results["correlation"] == correlate_tbs_to_packets(
            result.trace, MONITORED_UE_ID
        )


def _watermark_log(config: ScenarioConfig):
    """Every ``on_watermark`` call of a live session's operators, in order."""
    builder = SessionBuilder(config)
    log = []
    with use_id_space(builder.id_space):
        ctx = builder.build()
        for op in ctx.analysis_tap.operators:
            def logged(watermark_us, op=op, on_watermark=op.on_watermark):
                log.append([op.name, watermark_us])
                on_watermark(watermark_us)

            op.on_watermark = logged
        builder.start(ctx)
        ctx.sim.run_until(seconds(config.duration_s))
    ctx.sink.close()
    return log


#: (config, call count, sha256 of the JSON call log) from the tap that
#: recomputed every operator's watermark on every delivered record, less
#: the TB correlator's entries (it has no live reader, so is not attached).
WATERMARK_SCHEDULES = {
    "one-call": (
        ScenarioConfig(duration_s=2.0, seed=3, live_analysis=True),
        36,
        "8606c9610f94b2af2575c1d16025b766b4cc1d410398cb98169938902d7abf21",
    ),
    "learned-masked": (
        ScenarioConfig(duration_s=2.0, seed=3, live_analysis=True,
                       mask_ran_delay=True, aware_ran_learned=True),
        36,
        "59b2143020bcda1eec68fa5e096e7819445024098cd3ca38910fbee062085a02",
    ),
    "two-call": (
        ScenarioConfig(duration_s=1.5, seed=3, live_analysis=True,
                       calls=[CallSpec(call_id=0),
                              CallSpec(call_id=1, record_tbs=False)]),
        36,
        "800c38e88d5df3d9f734b08b4102317de1d628b42651e8f9a114a15e3870c58f",
    ),
}


class TestWatermarkSchedule:
    @pytest.mark.parametrize("name", sorted(WATERMARK_SCHEDULES))
    def test_schedule_is_pinned(self, name):
        """Grouped watermark checks issue exactly the old calls, in order."""
        config, calls, digest = WATERMARK_SCHEDULES[name]
        log = _watermark_log(config)
        assert len(log) == calls
        assert hashlib.sha256(json.dumps(log).encode()).hexdigest() == digest

    def test_age_heap_eviction_is_exact(self):
        """After every watermark the bounded indexes hold exactly the
        records fed so far whose age is within the retention horizon."""
        fed = {"packet": {}, "tb": {}}
        checked = []

        class Checked(RootCauseOperator):
            def on_record(self, channel, record):
                super().on_record(channel, record)
                if channel == "packet":
                    fed["packet"][record.packet_id] = record
                elif channel == "tb":
                    fed["tb"][record.tb_id] = record

            def on_watermark(self, watermark_us):
                super().on_watermark(watermark_us)
                horizon = watermark_us - self.retention_us
                assert set(self._packet_index) == {
                    pid for pid, p in fed["packet"].items()
                    if (p.capture_at(CapturePoint.SENDER) or 0) >= horizon
                }
                assert set(self._tb_index) == {
                    tid for tid, tb in fed["tb"].items()
                    if tb.slot_us >= horizon
                }
                checked.append(self.index_size())

        op = Checked(retain_results=False)
        tap = AnalysisTap([op], inner=InMemorySink(Trace()))
        config = ScenarioConfig(duration_s=2.0, seed=13)
        SessionBuilder(config, sink=tap).run()
        # Watermarks advanced during the run and evicted entries.
        assert len(checked) > 10
        assert min(checked[1:-1]) > 0
        assert max(checked) < len(fed["packet"]) + len(fed["tb"])


def _call_live(seed: int) -> ScenarioConfig:
    """The perf ``call_live`` session: live analysis plus §5.2/§5.3."""
    return ScenarioConfig(duration_s=3.0, seed=seed, live_analysis=True,
                          mask_ran_delay=True, aware_ran_learned=True)


#: session -> per call: (cause counts, packets_seen, bursts_seen, sha256 of
#: the JSON list of ``[packet_id, ran_induced_us(packet_id)]`` over the
#: call's trace packets).  Diagnoses never feed back into the simulation,
#: so trace and QoE digests cannot see a broken live feed; this can.
LIVE_FEEDS = {
    "call_live-seed1": (_call_live(1), [
        ({"harq_retx": 22, "none": 208, "scheduling_spread": 4}, 392, 85,
         "9789dc87ba53dd1ffbc14f63d379d249c2499b9a6b1f3126c8f7087e0c00f414"),
    ]),
    "call_live-seed2": (_call_live(2), [
        ({"harq_retx": 21, "none": 206, "scheduling_spread": 7}, 394, 85,
         "9d54d2169b3d9f9f985e1f0b161900699efacaec3087ad8a04e6f8ccd2a3fb01"),
    ]),
    "call_live-seed3": (_call_live(3), [
        ({"harq_retx": 21, "none": 210, "scheduling_spread": 3}, 398, 85,
         "7c8f3e43626658a5835008aacb2b2afb766fff472a63b4f32d644453f2cf765d"),
    ]),
    "two-call": (
        ScenarioConfig(duration_s=2.0, seed=3, live_analysis=True,
                       mask_ran_delay=True,
                       calls=[CallSpec(call_id=0),
                              CallSpec(call_id=1, record_tbs=False)]),
        [
            ({"harq_retx": 19, "none": 89, "scheduling_spread": 48}, 262, 57,
             "7c1e7db8ecc659a21c37026645e2113be13aa0c3fb174eee6800cd34698b87dd"),
            ({"harq_retx": 14, "none": 92, "scheduling_spread": 50}, 252, 57,
             "48804716ff78fb604d8d2f46467c01b63c33e740374743bd88f4fab1d5648674"),
        ],
    ),
}


class TestLiveFeedPin:
    @pytest.mark.parametrize("name", sorted(LIVE_FEEDS))
    def test_live_feed_is_pinned(self, name):
        """Each call's LiveDiagnosis holds exactly the pinned feed."""
        config, expected = LIVE_FEEDS[name]
        result = run_session(config)
        feeds = []
        for call in result.calls:
            diagnosis = call.diagnosis
            ran_induced = [
                [p.packet_id, diagnosis.ran_induced_us(p.packet_id)]
                for p in call.trace.packets
            ]
            counts = diagnosis.cause_counts
            feeds.append((
                {cause.value: n for cause, n in counts.items()},
                diagnosis.packets_seen,
                diagnosis.bursts_seen,
                hashlib.sha256(json.dumps(ran_induced).encode()).hexdigest(),
            ))
        assert feeds == expected


class TestReplayFacades:
    """replay_trace is the single implementation behind the batch API."""

    def test_replay_trace_matches_batch_functions(self):
        result = run_session(ScenarioConfig(duration_s=2.0, seed=6))
        trace = result.trace
        op = FrameClusterOperator()
        assert replay_trace(trace, [op])["clusters"] == (
            correlate_packets_to_frames(trace)
        )

    def test_live_diagnosis_masking_values_are_exact(self):
        """The feed hands the CC exactly the telemetry integers."""
        result = run_session(
            ScenarioConfig(duration_s=2.0, seed=8, live_analysis=True)
        )
        diagnosis = result.diagnosis
        checked = 0
        for packet in result.trace.packets:
            if packet.ran is None:
                continue
            fed = diagnosis.ran_induced_us(packet.packet_id)
            if fed is not None:
                assert fed == packet.ran.ran_induced_us()
                checked += 1
        assert checked > 0
