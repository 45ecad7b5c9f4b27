"""Content-addressed scenario result cache (repro.run.cache).

The correctness oracle throughout is byte-identity: a cache hit must be
indistinguishable — down to serialized JSONL bytes — from re-running the
simulation.  Everything else (fingerprint stability, corruption recovery,
LRU eviction) protects that property or bounds the store.
"""

from __future__ import annotations

import filecmp
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.rootcause import DelayCause
from repro.run import RunSpec, ScenarioCache, run_batch, run_session
from repro.run.batch import collect_qoe, run_batch_traces, sweep_grid
from repro.run.cache import (
    canonical_scenario,
    code_version_token,
    scenario_fingerprint,
    scenario_key,
)
from repro.run.scenario import CallSpec, ScenarioConfig
from repro.trace import encode_payload, save_trace

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _refuse_unpickling(*args, **kwargs):
    raise AssertionError("a cache read unpickled an entry")


def _config(**overrides) -> ScenarioConfig:
    defaults = dict(duration_s=0.4, seed=7, record_tbs=False)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# ---------------------------------------------------------------------------
# fingerprints


class TestFingerprint:
    def test_stable_within_process(self):
        a = scenario_fingerprint(_config())
        b = scenario_fingerprint(_config())
        assert a == b

    def test_stable_across_interpreter_restarts(self):
        script = (
            "from repro.run.cache import scenario_fingerprint\n"
            "from repro.run.scenario import ScenarioConfig\n"
            "print(scenario_fingerprint("
            "ScenarioConfig(duration_s=0.4, seed=7, record_tbs=False)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONHASHSEED="")
        outs = set()
        for seed in ("0", "1"):  # different hash randomization per run
            env["PYTHONHASHSEED"] = seed
            outs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    check=True, capture_output=True, text=True, env=env,
                ).stdout.strip()
            )
        assert len(outs) == 1
        assert outs == {scenario_fingerprint(_config())}

    def test_semantic_fields_change_the_key(self):
        base = scenario_fingerprint(_config())
        assert scenario_fingerprint(_config(seed=8)) != base
        assert scenario_fingerprint(_config(access="emulated")) != base
        assert scenario_fingerprint(_config(live_analysis=True)) != base

    @pytest.mark.parametrize("config, key", [
        (ScenarioConfig(),
         "a504e019574956aa9a0f7405ab359d63b52d7d54b2c749c070099cee0e7d30d0"),
        (ScenarioConfig(calls=[CallSpec(call_id=0), CallSpec(call_id=1)]),
         "08629b10091c3b14847f9e2ad39dc0d6b4dffebfa906248f64e427278cc69d42"),
    ], ids=["default", "two-call"])
    def test_canonical_form_is_pinned(self, config, key):
        # The unsalted canonical form must not move when config fields that
        # never reached it are added or removed; re-pin only on purpose.
        assert scenario_key(config) == key

    def test_legacy_and_single_call_modes_differ(self):
        # calls=None (legacy RNG stream names) vs an explicit one-call
        # list run different RNG streams; they must never share a key.
        legacy = scenario_fingerprint(_config(calls=None))
        single = scenario_fingerprint(_config(calls=[CallSpec(call_id=0)]))
        assert legacy != single

    def test_call_overrides_resolved_into_key(self):
        inherit = _config(calls=[CallSpec(call_id=0)], jitter_buffer_margin_ms=12.0)
        explicit = _config(
            calls=[CallSpec(call_id=0, jitter_buffer_margin_ms=12.0)],
            jitter_buffer_margin_ms=12.0,
        )
        # The override equals the inherited value: same resolved scenario.
        assert scenario_key(inherit) == scenario_key(explicit)

    def test_salt_bump_invalidates(self):
        config = _config()
        assert scenario_fingerprint(config) == scenario_fingerprint(
            config, salt=code_version_token()
        )
        assert scenario_fingerprint(config) != scenario_fingerprint(
            config, salt="2.0.0+deadbeefdeadbeef"
        )

    def test_canonical_form_is_json_stable(self):
        canon = canonical_scenario(_config(calls=[CallSpec(call_id=0)]))
        dumped = json.dumps(canon, sort_keys=True)
        assert json.loads(dumped) == json.loads(json.dumps(canon, sort_keys=True))


# ---------------------------------------------------------------------------
# store behaviour


class TestStore:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        config = _config()
        assert cache.get_result(config) is None
        assert cache.misses == 1
        result = run_session(config)
        cache.put_result(config, result)
        hit = cache.get_result(config)
        assert hit is not None
        assert cache.hits == 1
        assert hit.qoe().medians() == result.qoe().medians()
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["salt"] == code_version_token()

    def test_hit_jsonl_byte_identical_to_fresh_run(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        for seed in (7, 8):
            for access in ("5g", "emulated"):
                config = _config(seed=seed, access=access)
                cache.put_result(config, run_session(config))
                hit = cache.get_result(config)
                fresh_path = tmp_path / "fresh.jsonl"
                hit_path = tmp_path / "hit.jsonl"
                save_trace(run_session(config).trace, str(fresh_path))
                save_trace(hit.trace, str(hit_path))
                assert filecmp.cmp(fresh_path, hit_path, shallow=False), (
                    f"cache hit diverged for seed={seed} access={access}"
                )

    def test_index_survives_reopen(self, tmp_path):
        config = _config()
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cache.put_result(config, run_session(config))
        reopened = ScenarioCache(cache_dir=tmp_path / "c")
        assert len(reopened) == 1
        assert reopened.get_result(config) is not None
        assert reopened.hits == 1

    def test_stale_salt_clears_store(self, tmp_path):
        config = _config()
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cache.put_result(config, run_session(config))
        index = json.loads(cache.index_path.read_text(encoding="utf-8"))
        index["salt"] = "0.0.0+0000000000000000"
        cache.index_path.write_text(json.dumps(index), encoding="utf-8")
        reopened = ScenarioCache(cache_dir=tmp_path / "c")
        assert len(reopened) == 0
        assert reopened.get_result(config) is None

    def test_corrupted_entry_is_a_miss_then_heals(self, tmp_path):
        config = _config()
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        result = run_session(config)
        cache.put_result(config, result)
        key = scenario_fingerprint(config)
        entry_path = cache._entry_path(key)
        raw = entry_path.read_bytes()
        entry_path.write_bytes(raw[: len(raw) // 2])  # truncate mid-payload
        assert cache.get_result(config) is None  # corrupt -> miss
        assert cache.misses == 1
        assert len(cache) == 0  # dropped, not retried forever
        cache.put_result(config, result)  # re-simulated result re-stores
        assert cache.get_result(config) is not None

    def test_garbage_magic_is_a_miss(self, tmp_path):
        config = _config()
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cache.put_result(config, run_session(config))
        cache._entry_path(scenario_fingerprint(config)).write_bytes(
            b"not a cache entry"
        )
        assert cache.get_result(config) is None

    @pytest.mark.parametrize(
        "calls", [None, (CallSpec(call_id=0), CallSpec(call_id=1))],
        ids=["single-call", "two-call"],
    )
    def test_hit_diagnosis_equals_live_run(self, tmp_path, calls):
        config = ScenarioConfig(
            duration_s=1.0, seed=7, live_analysis=True, calls=calls
        )
        live = run_session(config)
        ScenarioCache(cache_dir=tmp_path / "c").put_result(config, live)
        hit = ScenarioCache(cache_dir=tmp_path / "c").get_result(config)
        assert hit is not None
        assert sum(live.diagnosis.cause_counts.values()) > 0
        pairs = [(hit.diagnosis, live.diagnosis)]
        assert len(hit.calls) == len(live.calls)
        for hit_call, live_call in zip(hit.calls, live.calls):
            assert (hit_call.spec, hit_call.ue_id) == (
                live_call.spec, live_call.ue_id
            )
            assert len(hit_call.trace.packets) == len(live_call.trace.packets)
            pairs.append((hit_call.diagnosis, live_call.diagnosis))
        for cached, fresh in pairs:
            assert cached.cause_counts == fresh.cause_counts
            assert {type(c) for c in cached.cause_counts} == {DelayCause}
            for cause in DelayCause:
                assert cached.cause_share(cause) == fresh.cause_fraction(cause)

    def test_old_layout_entry_is_a_miss_and_swept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pickle, "loads", _refuse_unpickling)
        config = _config()
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        key = scenario_fingerprint(config)
        payload = encode_payload(run_session(config).trace)
        summary = pickle.dumps(
            {"multicall": False, "calls": [{"ue_id": 1}], "cause_counts": None}
        )
        path = cache._entry_path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"".join((
            b"ATHE1\n", len(summary).to_bytes(8, "big"),
            len(payload).to_bytes(8, "big"), summary, payload,
        )))
        cache.index_path.write_text(json.dumps({
            "schema": "athena-cache/1", "salt": code_version_token(),
            "tick": 1, "entries": {key: {"bytes": path.stat().st_size, "tick": 1}},
        }), encoding="utf-8")
        reopened = ScenarioCache(cache_dir=tmp_path / "c")
        assert reopened.get_result(config) is None
        assert (reopened.hits, reopened.misses) == (0, 1)
        objects = tmp_path / "c" / "objects"
        assert not [p for p in objects.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("summary", [
        pickle.dumps({"multicall": False, "calls": [], "cause_counts": None}),
        b"not json",
        json.dumps({"cause_counts": None, "calls": [None, None]}).encode(),
        json.dumps({"cause_counts": {"weather": 1}, "calls": [None]}).encode(),
        json.dumps({"cause_counts": None}).encode(),
    ], ids=["pickle", "not-json", "call-count", "unknown-cause", "no-calls"])
    def test_bad_summary_is_a_miss_then_heals(self, tmp_path, monkeypatch, summary):
        monkeypatch.setattr(pickle, "loads", _refuse_unpickling)
        config = _config()
        key = scenario_fingerprint(config)
        payload = encode_payload(run_session(config).trace)
        ScenarioCache(cache_dir=tmp_path / "c").put(key, payload, summary)
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        assert cache.get_result(config) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 0 and not cache._entry_path(key).exists()
        # A cached batch meeting the same entry re-simulates and re-stores.
        cache.put(key, payload, summary)
        runs = run_batch([RunSpec("x", config)], collect=collect_qoe, jobs=1,
                         cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        healed = ScenarioCache(cache_dir=tmp_path / "c")
        hit = healed.get_result(config)
        assert hit is not None and healed.hits == 1
        assert collect_qoe(hit) == runs[0].value

    def test_lru_eviction_under_small_cap(self, tmp_path):
        entry = b"x" * 100
        cache = ScenarioCache(cache_dir=tmp_path / "c", max_bytes=400)
        keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
        for key in keys:
            cache.put(key, entry, entry)
        assert len(cache) == 1  # each entry ~222 bytes; cap keeps one
        assert cache.evictions == 2
        assert cache.get(keys[-1]) is not None  # newest survived
        assert cache.get(keys[0]) is None

    def test_lru_prefers_recently_hit(self, tmp_path):
        entry = b"x" * 30
        cache = ScenarioCache(cache_dir=tmp_path / "c", max_bytes=200)
        a, b = "aa" + "0" * 62, "bb" + "0" * 62
        cache.put(a, entry, entry)
        cache.put(b, entry, entry)
        assert len(cache) == 2
        assert cache.get(a) is not None  # touch a: b becomes LRU
        cache.put("cc" + "0" * 62, entry, entry)  # overflows the cap
        assert cache.get(a) is not None
        assert cache.get(b) is None

    def test_clear_reports_removed(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cache.put("dd" + "0" * 62, b"p", b"s")
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.total_bytes == 0


# ---------------------------------------------------------------------------
# batch wiring


class TestBatchWiring:
    def _specs(self):
        return [
            RunSpec("a", _config(seed=7)),
            RunSpec("b", _config(seed=8)),
            RunSpec("a2", _config(seed=7)),  # duplicate of "a"
        ]

    def test_cold_then_warm(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        cold = run_batch(self._specs(), collect=collect_qoe, jobs=2, cache=cache)
        assert cache.misses == 2 and cache.hits == 0  # in-flight dedup
        assert len(cache) == 2
        warm_cache = ScenarioCache(cache_dir=tmp_path / "c")
        warm = run_batch(
            self._specs(), collect=collect_qoe, jobs=2, cache=warm_cache
        )
        assert warm_cache.hits == 2 and warm_cache.misses == 0
        assert [r.value.medians() for r in cold] == [
            r.value.medians() for r in warm
        ]
        assert [r.label for r in warm] == ["a", "b", "a2"]

    def test_partial_hit_batch(self, tmp_path):
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        run_batch([RunSpec("a", _config(seed=7))], collect=collect_qoe,
                  jobs=1, cache=cache)
        cache2 = ScenarioCache(cache_dir=tmp_path / "c")
        runs = run_batch(self._specs(), collect=collect_qoe, jobs=2,
                         cache=cache2)
        assert cache2.hits == 1 and cache2.misses == 1
        assert len(runs) == 3

    def test_cached_traces_match_uncached(self, tmp_path):
        specs = sweep_grid(
            _config(), [7, 8], {"5g": {"access": "5g"}}
        )
        plain = run_batch_traces(specs, jobs=2)
        cache = ScenarioCache(cache_dir=tmp_path / "c")
        run_batch_traces(specs, jobs=2, cache=cache)  # populate
        cached = run_batch_traces(specs, jobs=2, cache=cache)
        assert cache.hits == len(specs)
        for a, b in zip(plain, cached):
            pa = tmp_path / "a.jsonl"
            pb = tmp_path / "b.jsonl"
            save_trace(a.value, str(pa))
            save_trace(b.value, str(pb))
            assert filecmp.cmp(pa, pb, shallow=False)

    def test_collector_runs_identically_for_hits_and_misses(self, tmp_path):
        seen = []

        def probe(result):
            seen.append(type(result).__name__)
            return result.qoe().medians()

        cache = ScenarioCache(cache_dir=tmp_path / "c")
        config = _config()
        miss = run_batch([RunSpec("x", config)], collect=probe, jobs=1,
                         cache=cache)
        hit = run_batch([RunSpec("x", config)], collect=probe, jobs=1,
                        cache=cache)
        # Hits AND misses rehydrate through the same CachedSessionResult
        # path, so collector output is identical by construction.
        assert seen == ["CachedSessionResult", "CachedSessionResult"]
        assert miss[0].value == hit[0].value


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
