#!/usr/bin/env python3
"""Offline workflow: capture a trace to disk, reload it, analyze it.

This mirrors how Athena is used against real captures: measurement
(NG-Scope + tcpdump + app instrumentation) happens once; correlation and
analysis run offline, repeatedly, over the stored records.

Usage::

    python examples/offline_trace_analysis.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.app import ScenarioConfig, run_session
from repro.core import (
    AthenaSession,
    StreamingReportOperator,
    render_streaming_report,
    replay_file,
)
from repro.trace import CapturePoint, export_csv, load_trace, save_trace


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="athena-trace-")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "session.jsonl"

    print("1. 'Measurement': simulating a 15 s call and writing the "
          "cross-layer trace ...")
    config = ScenarioConfig(duration_s=15.0, seed=8, record_tbs=True,
                            record_grants=True)
    result = run_session(config)
    save_trace(result.trace, trace_path)
    size_kb = trace_path.stat().st_size / 1024
    print(f"   wrote {trace_path} ({size_kb:.0f} KiB)")

    csvs = export_csv(result.trace, out_dir / "csv")
    print(f"   exported {len(csvs)} CSV files to {out_dir / 'csv'}")

    print("\n2. 'Analysis': reloading the trace and running Athena "
          "offline ...")
    trace = load_trace(trace_path)
    athena = AthenaSession(trace)

    print(f"   records: {len(trace.packets)} packets, "
          f"{len(trace.transport_blocks)} TBs, {len(trace.grants)} grants, "
          f"{len(trace.frames)} media units, {len(trace.probes)} probes")

    corr = athena.correlate(ue_id=1)
    accuracy = corr.accuracy_against_ground_truth(trace)
    print(f"   TB<->packet inference: {100 * accuracy:.1f}% exact "
          f"({len(corr.matches)} packets matched, "
          f"{len(corr.empty_tbs)} empty TBs)")

    step, score = athena.spread_quantization(CapturePoint.CORE)
    print(f"   delay-spread quantization: {step} ms (score {score:.4f})")

    eff = athena.grant_efficiency()
    print(f"   grant utilization: proactive {100 * eff['proactive']:.0f}%, "
          f"requested {100 * eff['requested']:.0f}% "
          "(over-granting, §3.1)")

    report = athena.root_causes()
    print("   frame delay causes: "
          + ", ".join(f"{cause.value}={count}"
                      for cause, count in report.cause_counts.most_common()))

    screen = athena.screen_observation()
    print(f"   screen capture (70 fps QR sampling): "
          f"{screen.observed_fps():.1f} fps observed, "
          f"{screen.stalls(35_714)} frozen frames")

    print("\n3. Full report, streamed from the file "
          "(also: `athena-repro analyze <trace>`):\n")
    results = replay_file(trace_path, [StreamingReportOperator()])
    print(render_streaming_report(results["report"]))

    print(f"\nTrace kept at {out_dir} for your own analysis.")


if __name__ == "__main__":
    main()
