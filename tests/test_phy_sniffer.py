"""Tests for the NG-Scope sniffer imperfection model."""

import numpy as np
import pytest

from repro.app import ScenarioConfig, run_session
from repro.core import correlate_tbs_to_packets
from repro.phy import RanConfig, SnifferConfig, sniff, sniffed_trace


@pytest.fixture(scope="module")
def session():
    config = ScenarioConfig(duration_s=10.0, seed=17, record_tbs=True,
                            ran=RanConfig(base_bler=0.05, retx_bler=0.05))
    return run_session(config)


def test_sniffer_hides_payload(session):
    rng = np.random.default_rng(0)
    view = sniff(session.trace.transport_blocks, rng, SnifferConfig())
    assert all(tb.packet_ids == [] for tb in view)


def test_sniffer_misses_expected_fraction(session):
    rng = np.random.default_rng(0)
    config = SnifferConfig(miss_rate=0.1, timestamp_jitter_us=0.0)
    view = sniff(session.trace.transport_blocks, rng, config)
    total = len(session.trace.transport_blocks)
    assert len(view) == pytest.approx(0.9 * total, rel=0.05)


def test_sniffer_does_not_mutate_ground_truth(session):
    rng = np.random.default_rng(0)
    before = [tb.slot_us for tb in session.trace.transport_blocks]
    sniff(session.trace.transport_blocks, rng,
          SnifferConfig(timestamp_jitter_us=500.0))
    after = [tb.slot_us for tb in session.trace.transport_blocks]
    assert before == after


def test_config_validation():
    with pytest.raises(ValueError):
        SnifferConfig(miss_rate=1.0)
    with pytest.raises(ValueError):
        SnifferConfig(timestamp_jitter_us=-1.0)


def test_correlation_degrades_gracefully_under_sniffer(session):
    """Athena's inference must survive realistic telemetry loss."""
    rng = np.random.default_rng(1)
    view = sniffed_trace(session.trace, rng,
                         SnifferConfig(miss_rate=0.02,
                                       timestamp_jitter_us=50.0))
    result = correlate_tbs_to_packets(view, ue_id=1)
    # Score the payload-blind inference against the ground-truth trace.
    accuracy = result.accuracy_against_ground_truth(session.trace)
    assert accuracy > 0.7
    # Most packets are still matched to some TB.
    matched = len(result.matches)
    assert matched > 0.9 * len([p for p in session.trace.packets])


def test_perfect_sniffer_matches_ground_truth(session):
    rng = np.random.default_rng(1)
    view = sniffed_trace(
        session.trace, rng,
        SnifferConfig(miss_rate=0.0, timestamp_jitter_us=0.0),
    )
    result = correlate_tbs_to_packets(view, ue_id=1)
    assert result.accuracy_against_ground_truth(session.trace) > 0.95
