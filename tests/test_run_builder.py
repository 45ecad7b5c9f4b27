"""The session builder: run isolation, metadata, build/start split."""

from __future__ import annotations

import pytest

from repro.app.session import run_session
from repro.experiments.common import emulated_scenario, idle_cell_scenario
from repro.phy.params import RanConfig
from repro.phy.ran import RanSimulator, nominal_ul_capacity_kbps
from repro.run import SessionBuilder
from repro.sim.engine import Simulator
from repro.trace import save_trace


def _save(result, path):
    save_trace(result.trace, path)
    return path.read_bytes()


class TestRunIsolation:
    def test_same_seed_is_byte_identical_regardless_of_prior_runs(
        self, tmp_path
    ):
        config = idle_cell_scenario(duration_s=2.0, seed=21,
                                    record_grants=True, time_sync=True)
        first = _save(run_session(config), tmp_path / "a.jsonl")
        # Interleave unrelated runs that would have advanced the old
        # process-global id counters and perturbed every later trace.
        run_session(idle_cell_scenario(duration_s=1.0, seed=5))
        run_session(emulated_scenario(duration_s=1.0, seed=6))
        second = _save(run_session(config), tmp_path / "b.jsonl")
        assert first == second

    def test_ids_restart_at_one_every_session(self):
        config = idle_cell_scenario(duration_s=1.0, seed=3)
        for _ in range(2):
            result = run_session(config)
            assert result.trace.packets[0].packet_id == 1
            assert result.trace.frames[0].frame_id == 1
            assert result.trace.transport_blocks[0].tb_id == 1


class TestMetadata:
    def test_metadata_keys_and_values(self):
        result = run_session(idle_cell_scenario(duration_s=1.0, seed=3))
        assert list(result.trace.metadata) == ["access", "duration_s", "seed"]
        assert result.trace.metadata["seed"] == 3
        assert result.trace.metadata["access"] == "5g"


class TestPipeline:
    def test_build_returns_unstarted_session(self):
        builder = SessionBuilder(idle_cell_scenario(duration_s=0.5, seed=4))
        ctx = builder.build()
        assert ctx.sim.now == 0
        call = ctx.calls[0]
        assert call.topology is not None
        assert call.sender is not None and call.receiver is not None


class TestNominalCapacity:
    def test_free_function_matches_simulator_method(self):
        for config in (RanConfig(), RanConfig(fdd=True),
                       RanConfig(tdd_pattern="DDSUU")):
            via_sim = RanSimulator(Simulator(), config).nominal_ul_capacity_kbps()
            assert nominal_ul_capacity_kbps(config) == via_sim

    def test_emulated_default_rate_uses_nominal_capacity(self):
        # rate 0 on an emulated scenario falls back to the nominal cell
        # capacity without instantiating a throwaway RAN simulator.
        config = emulated_scenario(duration_s=0.5, seed=4)
        result = run_session(config)
        expected = nominal_ul_capacity_kbps(config.ran)
        assert result.topology.uplink.link.rate_kbps == pytest.approx(expected)
