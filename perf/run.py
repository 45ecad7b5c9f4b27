#!/usr/bin/env python3
"""The repository benchmark: closed-loop workloads over the public API.

One workload, as a regression gate runs it::

    python3 perf/run.py --workload call_5g --seed 1 --seconds 15 --trace 0

runs operations back to back (one client; the next operation starts when
the previous one returns) for ``--seconds`` and prints one line per metric,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of an unprofiled run; ``--trace 1`` reports the
per-layer metrics of a separate profiled run.

Without ``--workload`` every workload runs, each in a fresh interpreter;
``--repeat N`` runs each N times (seeds ``seed .. seed+N-1`` unprofiled,
``seed`` N times profiled) and prints each metric's median and quartile
spread against its bound in ``BENCHMARK.json``, and whether the exact
counts repeated.  ``--smoke`` runs 5 operations per phase instead of a
timed window.  ``--out F`` writes, as JSON, a single run's details or the
suite's summary.

The benchmark imports the package from ``src/`` next to this directory and
exits with status 2 when there is none.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
WORK_DIR = PERF_DIR / ".work"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 15.0
#: Exact counts and the output digest cover the first operations only, so
#: they do not depend on how many operations fit in the window.
COUNT_OPS = 10
#: Operations re-run at the end of a run; their fingerprints must match.
RECHECK_OPS = 3
SETUP_PROBES = 5
SMOKE_OPS = 5

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "callsec_per_s": "callsec/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics derived from exact counts: they must repeat exactly.
EXACT_COUNTS = (
    "sim.events", "phy.tbs", "phy.harq_retx", "phy.tb_fill", "net.packets",
    "net.drop_ratio", "media.frames", "trace.records", "run.hit_ratio",
    "run.cache_bytes",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in layers.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.callbacks"] = "count"
    units[f"{layers.UNMAPPED}.self_s"] = "s"
    units[f"{layers.UNMAPPED}.share"] = "ratio"
    units.update(dict.fromkeys(layers.SPAN_NAMES, "s"))
    units.update({
        "sim.events": "count",
        "sim.us_per_event": "us",
        "phy.tbs": "count",
        "phy.harq_retx": "count",
        "phy.tb_fill": "ratio",
        "net.packets": "count",
        "net.drop_ratio": "ratio",
        "media.frames": "count",
        "trace.records": "count",
        "run.hit_ratio": "ratio",
        "run.cache_bytes": "bytes",
        "profile.overhead": "ratio",
    })
    return units


def is_exact(name: str) -> bool:
    """Whether a per-layer metric is a count that must repeat exactly."""
    return name in EXACT_COUNTS or name.endswith((".calls", ".callbacks"))


# ----------------------------------------------------------------------
# Host-speed reference
# ----------------------------------------------------------------------
# On a shared host the speed of each core drifts by tens of percent over a
# few seconds, in CPU time as much as in wall time, and one core can slow
# while another does not.  Each operation is therefore bracketed by a fixed
# pure-Python loop shaped like the simulator's hot path (heap pops, method
# calls, dict updates), run on the cores the operation uses, and times are
# reported scaled by REF_S / (that loop's time): seconds on a host where
# the loop takes REF_S.
#: The loop's time on a quiet 2-vCPU Xeon at 2.0 GHz (this baseline's host).
REF_S = 2.4e-3


class _RefEvent:
    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        self.key = key

    def fire(self, totals: Dict[int, int], now: int) -> int:
        totals[self.key % 7] = totals.get(self.key % 7, 0) + now
        return now + (self.key * 7919) % 100


def reference_s() -> float:
    """Host seconds of one run of the fixed reference loop.

    The collector is off meanwhile: a collection would scan whatever heap
    the caller has built up, which is not host speed.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        heap = [(i * 13 % 97, i, _RefEvent(i)) for i in range(200)]
        heapq.heapify(heap)
        totals: Dict[int, int] = {}
        for _ in range(3000):
            now, key, event = heapq.heappop(heap)
            heapq.heappush(heap, (event.fire(totals, now), key, event))
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Reference-loop time on the cores an operation runs on.

    A single-threaded workload is pinned to one core for the whole run;
    one that uses the worker pool is measured on every core in turn.
    """

    def __init__(self, parallel: bool) -> None:
        self.cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        if not parallel and self.cores:
            self.cores = self.cores[:1]
            os.sched_setaffinity(0, self.cores)

    def measure(self) -> float:
        if len(self.cores) <= 1:
            return reference_s()
        times = []
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            times.append(reference_s())
        os.sched_setaffinity(0, self.cores)
        return statistics.mean(times)


# ----------------------------------------------------------------------
# One workload in this interpreter
# ----------------------------------------------------------------------
class Phase:
    """Operation times and oracle verdicts of one closed-loop phase."""

    def __init__(self) -> None:
        self.times: List[float] = []  # host seconds per operation
        self.refs: List[float] = []  # reference loop around each one
        self.checks: Dict[int, Any] = {}
        self.failures: Dict[int, str] = {}
        self.snapshot: Optional[list] = None  # profile after COUNT_OPS ops

    def normalized(self) -> List[float]:
        """Operation times scaled to the REF_S host."""
        return [t * REF_S / ref for t, ref in zip(self.times, self.refs)]

    def speed(self) -> float:
        """REF_S over the phase's median reference time (1.0 = REF_S host)."""
        return REF_S / statistics.median(self.refs)


def run_phase(wl: Any, host: HostSpeed, seconds: float, min_ops: int,
              max_ops: Optional[int], profiler: Any = None,
              count_ops: int = COUNT_OPS) -> Phase:
    """Run operations 0, 1, ... until ``seconds`` pass (at least ``min_ops``).

    Each operation starts from a collected heap, so the garbage collector's
    pauses fall on the operation whose allocations trigger them.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or (
        (max_ops is None or i < max_ops) and time.perf_counter() < deadline
    ):
        wl.before(i)
        gc.collect()
        ref_before = host.measure()
        out = None
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            out = wl.op(i)
        except Exception:  # a failed operation is counted, the loop goes on
            phase.failures[i] = traceback.format_exc()
        finally:
            if profiler is not None:
                profiler.disable()
        phase.times.append(time.perf_counter() - start)
        phase.refs.append((ref_before + host.measure()) / 2)
        if out is not None:
            try:
                checked = wl.check(i, out, i < count_ops)
            except Exception:
                phase.failures[i] = traceback.format_exc()
            else:
                phase.checks[i] = checked
                if checked.reason:
                    phase.failures[i] = checked.reason
        del out
        i += 1
        if profiler is not None and i == count_ops:
            phase.snapshot = profiler.getstats()
    return phase


def recheck(wl: Any, phase: Phase) -> None:
    """Re-run the first operations and the end-of-run checks (untimed)."""
    for i in range(min(RECHECK_OPS, len(phase.times))):
        if i not in phase.checks:
            continue
        try:
            wl.before(i)
            again = wl.check(i, wl.op(i), False)
        except Exception:
            phase.failures[i] = traceback.format_exc()
            continue
        if again.fingerprint != phase.checks[i].fingerprint:
            phase.failures[i] = "re-run output differs from the first run"
    try:
        reason = wl.final_check()
    except Exception:
        reason = traceback.format_exc()
    if reason:
        phase.failures[0] = reason


def setup_probes(name: str, seed: int, workdir: Path, count: int) -> List[float]:
    """Set-up seconds of ``count`` sequential fresh interpreters."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", name,
             "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def probe(name: str, seed: int, workdir: Path) -> int:
    """Time one fresh interpreter from ``import repro.run`` to first-op-ready.

    The probe is pinned to one core, and prints its time scaled to the
    REF_S host by the reference loop's median before and after.
    """
    host = HostSpeed(parallel=False)
    host.measure()  # warm-up: the interpreter specializes the loop first
    refs = [host.measure() for _ in range(2)]
    start = time.perf_counter()
    import workloads

    wl = workloads.make(name, seed, workdir)
    try:
        wl.ready()
        elapsed = time.perf_counter() - start
    finally:
        wl.close()
    refs += [host.measure() for _ in range(3)]
    print(repr(elapsed * REF_S / statistics.median(refs)))
    return 0


def drop_work_dir() -> None:
    """Remove the scratch directory once no run uses it."""
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run still has files there


class RunUntilTimer:
    """Accumulates host seconds in ``Simulator.run_until`` while entered."""

    def __enter__(self) -> "RunUntilTimer":
        from repro.sim.engine import Simulator

        self.seconds = 0.0
        original = self.original = Simulator.run_until

        def timed_run_until(sim: Any, end_us: int) -> None:
            start = time.perf_counter()
            try:
                original(sim, end_us)
            finally:
                self.seconds += time.perf_counter() - start

        Simulator.run_until = timed_run_until
        return self

    def __exit__(self, *exc_info: object) -> None:
        from repro.sim.engine import Simulator

        Simulator.run_until = self.original


def end_to_end_metrics(wl: Any, phase: Phase, probes: List[float]) -> Dict[str, float]:
    times = phase.normalized()
    return {
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[-1],
        "callsec_per_s": wl.callsec_per_op * len(times) / sum(times),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_map() -> layers.LayerMap:
    return layers.LayerMap(str(SRC / "repro"), str(PERF_DIR))


def per_layer_metrics(wl: Any, plain: Phase, traced: Phase, stats: list,
                      run_until_s: float, count_ops: int) -> Dict[str, float]:
    import workloads

    owners = layer_map()
    n = len(traced.times)
    self_s = layers.attribute_self_time(stats, owners)
    total = sum(self_s.values()) or 1.0
    counts = layers.layer_counts(traced.snapshot or stats, owners)
    out: Dict[str, float] = {}
    speed = traced.speed()
    for layer in layers.LAYERS + (layers.UNMAPPED,):
        out[f"{layer}.self_s"] = self_s[layer] * speed / n
        out[f"{layer}.share"] = self_s[layer] / total
        if layer != layers.UNMAPPED:
            out[f"{layer}.calls"] = counts["calls"][layer] / count_ops
            out[f"{layer}.callbacks"] = counts["callbacks"][layer] / count_ops
    for name, seconds in layers.spans(stats, owners).items():
        out[name] = seconds * speed / n
    events = sum(counts["callbacks"].values()) / count_ops
    out["sim.events"] = events
    out["sim.us_per_event"] = (
        run_until_s * plain.speed() / len(plain.times) / events * 1e6 if events else 0.0
    )
    rec = workloads.add_counts(
        plain.checks[i].counts for i in range(count_ops)
        if i in plain.checks and plain.checks[i].counts is not None
    )
    channels = rec["channels"]
    packets = channels["packet"]
    out["phy.tbs"] = channels["tb"] / count_ops
    out["phy.harq_retx"] = rec.get("harq_retx", 0) / count_ops
    size_bits = rec.get("tb_size_bits", 0)
    out["phy.tb_fill"] = rec.get("tb_used_bits", 0) / size_bits if size_bits else 0.0
    out["net.packets"] = packets / count_ops
    out["net.drop_ratio"] = rec.get("dropped", 0) / packets if packets else 0.0
    out["media.frames"] = channels["frame"] / count_ops
    out["trace.records"] = sum(channels.values()) / count_ops
    cache = wl.cache_stats()
    out["run.hit_ratio"] = cache["hit_ratio"]
    out["run.cache_bytes"] = cache["cache_bytes"]
    out["profile.overhead"] = (
        statistics.median(traced.normalized()) / statistics.median(plain.normalized())
    )
    return out


def run_one(args: argparse.Namespace) -> int:
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perf: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import cProfile

    import workloads

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    count_ops = SMOKE_OPS if args.smoke else COUNT_OPS
    min_ops, max_ops = (SMOKE_OPS, SMOKE_OPS) if args.smoke else (count_ops, None)
    wl = workloads.make(args.workload, args.seed, workdir)
    try:
        wl.setup()
        probes = [] if args.trace else setup_probes(
            args.workload, args.seed, workdir, 1 if args.smoke else SETUP_PROBES
        )
        host = HostSpeed(wl.parallel)  # pins; the probes above saw every core
        if args.trace:
            with RunUntilTimer() as timer:
                plain = run_phase(wl, host, args.seconds / 3, min_ops, max_ops, None, count_ops)
            profiler = cProfile.Profile()
            traced = run_phase(
                wl, host, args.seconds * 2 / 3, min_ops, max_ops, profiler, count_ops
            )
            stats = profiler.getstats()
            metrics = per_layer_metrics(wl, plain, traced, stats, timer.seconds, count_ops)
            units = per_layer_units()
            recheck(wl, plain)
            phases = [plain, traced]
        else:
            plain = run_phase(wl, host, args.seconds, min_ops, max_ops, None, count_ops)
            recheck(wl, plain)
            metrics = end_to_end_metrics(wl, plain, probes)
            units = END_TO_END_UNITS
            phases = [plain]
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        drop_work_dir()

    attempted = sum(len(p.times) for p in phases)
    failures = {
        f"{index}.{i}": reason
        for index, p in enumerate(phases) for i, reason in sorted(p.failures.items())
    }
    fingerprints = [plain.checks[i].fingerprint for i in range(count_ops) if i in plain.checks]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "samples": {"op_s": len(plain.times), "traced_op_s": len(phases[-1].times)},
        "raw_op_s_p50": statistics.median(plain.times),
        "host_speed": plain.speed(),
        "output_digest": workloads.digest(fingerprints),
        "setup_probes_s": probes,
        "failures": failures,
    }
    if args.trace:
        detail["packages"] = layers.packages_reached(stats, layer_map())
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    detail["result"] = result
    for key, reason in failures.items():
        print(f"FAILED op {key}: {reason.strip()}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(plain.times)} output_digest={detail['output_digest']}")
    for name, unit in units.items():
        note = f"  (n={len(plain.times)})" if name.startswith("op_s.") else ""
        print(f"{name:<24} {metrics[name]:<14.6g} {unit}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# The suite: every workload in fresh interpreters, optionally repeated
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, trace: int, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; return its detail record."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    fd, out_name = tempfile.mkstemp(suffix=".json", dir=WORK_DIR)
    os.close(fd)
    out_path = Path(out_name)
    try:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", str(out_path)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=False)
        if proc.returncode != 0 or not out_path.stat().st_size:
            return {"workload": name, "seed": seed, "trace": trace,
                    "error": proc.stderr[-4000:] or f"exit {proc.returncode}"}
        return json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)
        drop_work_dir()


def quartiles(values: List[float]) -> List[float]:
    """[q1, median, q3] of ``values``, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              bench: Dict[str, Any]) -> Dict[str, Any]:
    """Medians, quartile spreads and flags of one workload's repeated runs."""
    summary: Dict[str, Any] = {"end_to_end": {}, "per_layer": {}, "flags": []}
    for runs, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        for run in runs:
            if "result" not in run:
                summary["flags"].append(f"{kind} run seed={run['seed']} crashed")
            elif not run["result"]["correct"]:
                summary["flags"].append(
                    f"{kind} run seed={run['seed']} failed {run['result']['failed']} ops"
                )
        ok_runs = [run for run in runs if "result" in run]
        for metric in bench[kind] if ok_runs else ():
            name = metric["name"]
            values = [run["result"]["metrics"][name]["value"] for run in ok_runs]
            q1, median, q3 = quartiles(values)
            row = {"median": median, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / median if median else 0.0,
                   "unit": metric["unit"], "runs": len(values)}
            if kind == "end_to_end":
                row["bound"] = metric["bound"]
                if row["spread"] > metric["bound"]:
                    summary["flags"].append(f"{name} spread exceeds its bound")
            elif is_exact(name) and len(set(values)) > 1:
                summary["flags"].append(f"{name} did not repeat exactly")
            summary[kind][name] = row
    digests = sorted({run["output_digest"] for run in traced if "output_digest" in run})
    summary["output_digest"] = digests
    if len(digests) > 1:
        summary["flags"].append("output digest differs between identical runs")
    return summary


def run_suite(args: argparse.Namespace) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    summaries: Dict[str, Any] = {}
    for name in names:
        untraced = [run_child(name, args.seed + k, 0, args) for k in range(args.repeat)]
        traced = [run_child(name, args.seed, 1, args) for _ in range(args.repeat)]
        summaries[name] = summary = summarize(untraced, traced, bench)
        print(f"== {name}: {args.repeat} run(s) each way")
        for kind in ("end_to_end", "per_layer"):
            for metric, row in summary[kind].items():
                bound = f"  bound {row['bound']:.0%}" if "bound" in row else ""
                print(f"  {metric:<24} median {row['median']:<12.6g} {row['unit']:<9} "
                      f"spread {row['spread']:6.2%}{bound}")
        for flag in summary["flags"]:
            print(f"  FLAG {flag}")
    if args.out:
        record = {"seed": args.seed, "seconds": args.seconds, "repeat": args.repeat,
                  "smoke": args.smoke, "workloads": summaries}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if any(s["flags"] for s in summaries.values()) else 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_OPS} operations per phase, one set-up probe")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.probe, args.seed, Path(args.workdir))
    if args.workload and args.repeat == 1:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
