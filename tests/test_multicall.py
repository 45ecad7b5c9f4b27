"""Multi-call cell: facade equivalence, per-call determinism, contention.

The headline invariants of the multi-call refactor:

* a single-call session (``calls=None``) produces a trace byte-identical
  to the pre-multicall code — locked by golden hashes captured before the
  refactor;
* N-call runs are deterministic across repeats;
* a call's trace is byte-identical whether it runs alone or alongside
  zero-demand peer calls (call-scoped RNG streams and id spaces);
* contention degrades per-call QoE monotonically as the cell fills.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.mitigation.aware_ran import (
    AppAwareAdvisor,
    MediaSchedule,
    MultiCallAdvisor,
)
from repro.phy.params import CrossTrafficConfig, CrossTrafficPhase, RanConfig
from repro.phy.tdd import TddFrame
from repro.run.batch import RunSpec, collect_call_summaries, run_batch
from repro.run.builder import run_session
from repro.run.scenario import CallSpec, ScenarioConfig
from repro.trace.bus import CHANNEL_FIELDS
from repro.trace.columnar import ChannelStore
from repro.trace.io import load_trace, save_trace
from repro.trace.schema import (
    PacketRecord,
    MediaKind,
    Trace,
    record_belongs_to_call,
)

#: sha256 over the canonical serialization of every record, captured from
#: the pre-multicall code (2 s default sessions).  If one of these moves,
#: the single-call facade is no longer byte-identical to the old runner.
GOLDEN_SINGLE_CALL = {
    ("5g", 7): "a1b653ab5a03d4871117664aba5a7917d54bc02fb632c42463bc674d80f21f3a",
    ("5g", 11): "c67d07cee222de9fba185a10fab43b89e336b3cedfe26542055276ec18ebca97",
    ("5g", 23): "39d6352dfe90760655ce019ccca2d6291f00cfd689db6fd9123931bb452743c4",
    ("emulated", 7): "7db918d231aff8d7e06e9388f50242d288c5fa654041e2325db00b607508f035",
    ("emulated", 11): "00d9d24bb5396e86523b9d7964ce6c6c094d66a968c31ad940ea06d957175d77",
    ("emulated", 23): "77118b92ba2d94552f36fcc49f8c8de24a38b1ac0ce0d76175491b86658915ce",
}


#: The same hash for the contended cell: four calls and four cross-traffic
#: UEs (6 Mbps in total) on a 12-PRB uplink, 1 s, with grant records on.
#: No other golden saturates the scheduler or runs cross traffic, so these
#: pin the busy-slot path (split grants, SR safety net, owed-bit sizing).
GOLDEN_CONTENDED = {
    7: "df69ee8e98e7dacf4f81aa53c5ee9664fa00dd5fa823afaa4782bcea07e73ec4",
    11: "6319d93bab8531d60f07eb404ec569da1428f1431f914dd5e39d91c25c534496",
}


def contended_config(seed: int, **ran_overrides) -> ScenarioConfig:
    """The contended cell pinned by :data:`GOLDEN_CONTENDED`."""
    return ScenarioConfig(
        duration_s=1.0,
        seed=seed,
        ran=RanConfig(n_ul_prbs=12, **ran_overrides),
        cross_traffic=CrossTrafficConfig(
            n_ues=4, phases=[CrossTrafficPhase(0, 6_000.0)]
        ),
        calls=[CallSpec(call_id=k) for k in range(4)],
        record_grants=True,
    )


def trace_hash(trace: Trace) -> str:
    """sha256 over every record's tagged JSONL line, family by family.

    The lines come from the codec's renderer, as :func:`save_trace` writes
    them; the ``meta`` line is left out.
    """
    digest = hashlib.sha256()
    for channel in ("packet", "tb", "grant", "frame", "probe", "sync"):
        store = ChannelStore(channel, getattr(trace, CHANNEL_FIELDS[channel]))
        for row in store.json_rows(0, store.rows, type_tag=channel):
            digest.update((json.dumps(row) + "\n").encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Facade equivalence: single-call stays byte-identical to pre-refactor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("access,seed", sorted(GOLDEN_SINGLE_CALL))
def test_single_call_facade_byte_identical(access, seed):
    result = run_session(
        ScenarioConfig(duration_s=2.0, seed=seed, access=access)
    )
    assert trace_hash(result.trace) == GOLDEN_SINGLE_CALL[(access, seed)]


@pytest.mark.parametrize("seed", sorted(GOLDEN_CONTENDED))
def test_contended_cell_byte_identical(seed):
    result = run_session(contended_config(seed))
    assert trace_hash(result.trace) == GOLDEN_CONTENDED[seed]


def test_single_call_result_has_one_call_view():
    result = run_session(ScenarioConfig(duration_s=1.0, seed=7))
    assert len(result.calls) == 1
    call = result.calls[0]
    assert call.call_id == 0
    assert call.ue_id == 1
    # The single call's view IS the session trace (no filtering layer).
    assert call.trace is result.trace
    assert call.sender is result.sender
    assert result.call(0) is call
    with pytest.raises(KeyError):
        result.call(1)


# ----------------------------------------------------------------------
# Multi-call determinism
# ----------------------------------------------------------------------
def _two_call_config(**overrides):
    return ScenarioConfig(
        duration_s=1.0,
        seed=7,
        access="5g",
        calls=[CallSpec(call_id=0), CallSpec(call_id=1)],
        **overrides,
    )


def test_multicall_runs_byte_identical_across_repeats():
    first = run_session(_two_call_config())
    second = run_session(_two_call_config())
    assert trace_hash(first.trace) == trace_hash(second.trace)


def test_call_trace_unchanged_by_zero_demand_peers():
    alone = run_session(
        ScenarioConfig(
            duration_s=1.0, seed=7, access="5g", calls=[CallSpec(call_id=0)]
        )
    )
    peered = run_session(
        ScenarioConfig(
            duration_s=1.0,
            seed=7,
            access="5g",
            calls=[
                CallSpec(call_id=0),
                CallSpec(
                    call_id=1,
                    start_media=False,
                    proactive=False,
                    start_prober=False,
                ),
            ],
        )
    )
    assert trace_hash(alone.trace.for_call(0, 1)) == trace_hash(
        peered.trace.for_call(0, 1)
    )


def test_multicall_per_call_views_partition_app_records():
    result = run_session(_two_call_config())
    assert result.trace.call_ids() == [0, 1]
    total_packets = [
        p for p in result.trace.packets if p.call_id is not None
    ]
    by_call = [result.call(0).trace, result.call(1).trace]
    assert sum(len(t.packets) for t in by_call) == len(total_packets)
    for call_id, view in enumerate(by_call):
        assert all(p.call_id == call_id for p in view.packets)
        assert all(f.call_id == call_id for f in view.frames)
        assert view.metadata["call_id"] == call_id
    # PHY records are attributed by UE id.
    ues = {tb.ue_id for tb in result.trace.transport_blocks}
    assert {1, 2} <= ues or not result.trace.transport_blocks


def test_multicall_flows_and_ssrcs_are_distinct():
    result = run_session(_two_call_config())
    flows = {p.flow_id for p in result.trace.packets if p.call_id is not None}
    assert "call0.video" in flows and "call1.video" in flows
    ssrcs = {
        (p.call_id, p.rtp.ssrc)
        for p in result.trace.packets
        if p.rtp is not None
    }
    per_call = {}
    for call_id, ssrc in ssrcs:
        per_call.setdefault(call_id, set()).add(ssrc)
    assert per_call[0].isdisjoint(per_call[1])


def test_multicall_call_id_round_trips_through_jsonl(tmp_path):
    result = run_session(_two_call_config())
    path = tmp_path / "multicall.jsonl"
    save_trace(result.trace, str(path))
    loaded = load_trace(str(path))
    assert trace_hash(loaded) == trace_hash(result.trace)
    assert loaded.call_ids() == [0, 1]


def test_single_call_serialization_omits_call_id(tmp_path):
    result = run_session(ScenarioConfig(duration_s=0.5, seed=7))
    path = tmp_path / "single.jsonl"
    save_trace(result.trace, str(path))
    for line in path.read_text().splitlines():
        assert "call_id" not in json.loads(line)


# ----------------------------------------------------------------------
# Batch execution and contention
# ----------------------------------------------------------------------
def test_four_call_cell_through_batch_executor():
    config = ScenarioConfig(
        duration_s=1.0,
        seed=7,
        access="5g",
        ran=RanConfig(n_ul_prbs=12),
        calls=[CallSpec(call_id=k) for k in range(4)],
    )
    runs = run_batch(
        [RunSpec(label="contention", config=config)],
        collect=collect_call_summaries,
        jobs=2,
    )
    rows = runs[0].value
    assert [int(r["call_id"]) for r in rows] == [0, 1, 2, 3]
    assert all(r["packets"] > 0 for r in rows)


def test_contention_degrades_per_call_qoe_monotonically():
    from repro.experiments import run_ext_contention

    result = run_ext_contention(duration_s=6.0, max_calls=3, jobs=2)
    rates = [p.mean_bitrate_kbps for p in result.series(False)]
    assert len(rates) == 3
    # Mean per-call bitrate must not improve as the cell fills (small
    # tolerance for windowing noise).
    for thinner, fuller in zip(rates, rates[1:]):
        assert fuller <= thinner * 1.02
    assert rates[-1] < rates[0]


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_unknown_channel_rejected():
    with pytest.raises(ValueError, match="channel"):
        ScenarioConfig(channel="rayleigh")


def test_empty_calls_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(calls=[])


def test_duplicate_call_ids_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(calls=[CallSpec(call_id=0), CallSpec(call_id=0)])


def test_colliding_ue_ids_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(
            calls=[CallSpec(call_id=0, ue_id=5), CallSpec(call_id=1, ue_id=5)]
        )


def test_per_call_channel_validated():
    with pytest.raises(ValueError):
        ScenarioConfig(calls=[CallSpec(call_id=0, channel="nope")])


def test_cross_traffic_ue_ids_clear_call_ues():
    config = ScenarioConfig(
        calls=[CallSpec(call_id=k) for k in range(3)]
    )
    assert config.cross_traffic_first_ue_id() == 100
    wide = ScenarioConfig(
        calls=[CallSpec(call_id=0, ue_id=200), CallSpec(call_id=1, ue_id=201)]
    )
    assert wide.cross_traffic_first_ue_id() == 202


# ----------------------------------------------------------------------
# Unit tests: call attribution and the composite advisor
# ----------------------------------------------------------------------
def _packet(packet_id: int, call_id=None) -> PacketRecord:
    return PacketRecord(
        packet_id=packet_id,
        flow_id="video",
        kind=MediaKind.VIDEO,
        size_bytes=1_000,
        call_id=call_id,
    )


def test_record_belongs_to_call_uses_ue_for_phy_channels():
    class Tb:
        ue_id = 7

    assert record_belongs_to_call("tb", Tb(), 0, 7)
    assert not record_belongs_to_call("tb", Tb(), 0, 8)
    assert not record_belongs_to_call("tb", Tb(), 0, None)
    assert record_belongs_to_call("packet", _packet(1, call_id=3), 3, None)


def test_multicall_advisor_concatenates_and_routes():
    config = RanConfig()
    tdd = TddFrame(config.tdd_pattern, config.slot_us, fdd=config.fdd)

    def advisor_for(ue_id):
        schedule = MediaSchedule(
            next_frame_us=0, frame_period_us=33_000, frame_size_bytes=4_000
        )
        return AppAwareAdvisor(
            config, tdd, ue_id, schedule, suppress_proactive_grants=True
        )

    a, b = advisor_for(1), advisor_for(2)
    composite = MultiCallAdvisor([a, b])
    slot = tdd.next_ul_slot_start(1_000_000)
    grants = composite.grants_for_slot(slot)
    # Each advisor contributes a frame grant plus an audio keep-alive;
    # concatenation preserves call order.
    assert [g.ue_id for g in grants] == [1, 1, 2, 2]
    assert composite.suppress_proactive(1, slot)
    assert composite.suppress_proactive(2, slot)
    assert not composite.suppress_proactive(3, slot)
    assert composite.grants_issued == a.grants_issued + b.grants_issued
    with pytest.raises(ValueError):
        MultiCallAdvisor([])
    with pytest.raises(ValueError):
        MultiCallAdvisor([advisor_for(1), advisor_for(1)])


def test_call_scoped_operator_filters_merged_stream():
    from repro.core.streaming import CallScopedOperator, StreamOperator

    class Collect(StreamOperator):
        channels = ("packet",)
        name = "collect"

        def __init__(self):
            self.seen = []

        def on_record(self, channel, record):
            self.seen.append(record.packet_id)

        def result(self):
            return self.seen

    inner = Collect()
    scoped = CallScopedOperator(inner, call_id=1, ue_id=2)
    scoped.on_record("packet", _packet(1, call_id=0))
    scoped.on_record("packet", _packet(2, call_id=1))
    assert scoped.name == "collect.call1"
    assert inner.seen == [2]
    assert scoped.records_scoped == 1
    assert scoped.records_dropped == 1
