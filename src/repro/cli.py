"""Command-line interface: run sessions, analyze traces, regenerate figures.

Examples::

    athena-repro run --duration 20 --out trace.jsonl
    athena-repro analyze trace.jsonl
    athena-repro figure fig5
    athena-repro sweep duplexing
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict


def _make_cache(args: argparse.Namespace):
    """Build the scenario cache selected by --cache/--no-cache/--cache-dir."""
    if not getattr(args, "cache", True):
        return None
    from .run.cache import DEFAULT_CACHE_DIR, ScenarioCache

    return ScenarioCache(cache_dir=args.cache_dir or DEFAULT_CACHE_DIR)


def _print_cache_stats(cache) -> None:
    if cache is None:
        return
    stats = cache.stats()
    print(f"cache: hits={stats['hits']} misses={stats['misses']} "
          f"entries={stats['entries']}")


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", dest="cache", action="store_true",
                        default=True,
                        help="reuse cached scenario results (default)")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="always re-simulate; don't touch the cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="scenario cache directory "
                             "(default: .athena-cache)")


def _cmd_run(args: argparse.Namespace) -> int:
    from .app import ScenarioConfig, run_session
    from .phy.params import CrossTrafficConfig, CrossTrafficPhase
    from .trace import save_trace

    cross = None
    if args.cross_mbps > 0:
        cross = CrossTrafficConfig(
            phases=[CrossTrafficPhase(0, args.cross_mbps * 1_000)]
        )
    try:
        config = ScenarioConfig(
            duration_s=args.duration,
            seed=args.seed,
            access=args.access,
            cross_traffic=cross,
            record_tbs=args.access == "5g",
            aware_ran=args.aware_ran,
            mask_ran_delay=args.mask_ran_delay,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"Running {args.duration:.0f} s {args.access} session "
          f"(seed {args.seed}) ...")
    result = run_session(config)
    save_trace(result.trace, args.out)
    qoe = result.qoe().medians()
    print(f"Wrote {args.out}: {len(result.trace.packets)} packets, "
          f"{len(result.trace.transport_blocks)} TBs.")
    print(f"QoE medians: {qoe['bitrate_kbps']:.0f} kbps, "
          f"{qoe['fps']:.0f} fps, SSIM {qoe['ssim']:.3f}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .trace.io import TraceFormatError

    try:
        print(_analysis_report(args))
    except (TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _analysis_report(args: argparse.Namespace) -> str:
    """The streaming report of ``args.trace``; the file is never loaded whole.

    Memory stays O(watermark window) on time-interleaved files; files from
    save_trace are grouped by family, which is still correct but holds
    state until the last family arrives.  With ``--synchronize`` a first
    pass estimates each host's clock offset from the recorded sync
    exchanges, and the report pass aligns every packet as it is read.
    """
    from .core import (
        StreamingReportOperator,
        SyncOffsetOperator,
        render_streaming_report,
        replay_file,
    )

    sync = None
    if args.synchronize:
        offsets = SyncOffsetOperator()
        sync = replay_file(args.trace, [offsets])[offsets.name]
    results = replay_file(args.trace, [StreamingReportOperator()], sync=sync)
    return render_streaming_report(results["report"])


def _cmd_figure(args: argparse.Namespace) -> int:
    from . import experiments
    from .experiments.common import set_experiment_cache

    cache = _make_cache(args)
    set_experiment_cache(cache)
    runners: Dict[str, Callable] = {
        "fig3": lambda: experiments.run_fig3(duration_s=args.duration or 60.0),
        "fig4": lambda: experiments.run_fig4(duration_s=args.duration or 60.0),
        "fig5": lambda: experiments.run_fig5(duration_s=args.duration or 40.0),
        "fig7": lambda: experiments.run_fig7(duration_s=args.duration or 60.0),
        "fig8": lambda: experiments.run_fig8(duration_s=args.duration or 90.0),
        "fig9a": lambda: experiments.run_fig9a(duration_s=args.duration or 20.0),
        "fig9b": lambda: experiments.run_fig9b(duration_s=args.duration or 30.0),
        "fig10": lambda: experiments.run_fig10(duration_s=args.duration or 60.0),
        "sec52": lambda: experiments.run_sec52(duration_s=args.duration or 30.0),
        "sec53": lambda: experiments.run_sec53(duration_s=args.duration or 60.0),
        "ext-l4s": lambda: experiments.run_ext_l4s(
            duration_s=args.duration or 30.0),
        "ext-gcc-contexts": lambda: experiments.run_ext_gcc_contexts(
            duration_s=args.duration or 30.0),
        "ext-app-classes": lambda: experiments.run_ext_app_classes(
            duration_s=args.duration or 30.0),
        "ext-jitterbuffer": lambda: experiments.run_ext_jitterbuffer(
            duration_s=args.duration or 40.0),
        "ext-contention": lambda: experiments.run_ext_contention(
            duration_s=args.duration or 10.0),
    }
    runner = runners.get(args.id)
    if runner is None:
        print(f"unknown figure id {args.id!r}; choose from "
              f"{', '.join(sorted(runners))}", file=sys.stderr)
        return 2
    result = runner()
    print(result.summary())
    if args.export:
        from .experiments import export_figure_data

        written = export_figure_data(result, args.export)
        for path in written:
            print(f"wrote {path}")
    _print_cache_stats(cache)
    set_experiment_cache(None)
    return 0


def _cmd_reproduce_all(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import experiments
    from .experiments import export_figure_data
    from .experiments.common import set_experiment_cache

    cache = _make_cache(args)
    set_experiment_cache(cache)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scale = args.scale
    jobs = [
        ("fig3", lambda: experiments.run_fig3(duration_s=60.0 * scale)),
        ("fig4", lambda: experiments.run_fig4(duration_s=60.0 * scale)),
        ("fig5", lambda: experiments.run_fig5(duration_s=40.0 * scale)),
        ("fig7", lambda: experiments.run_fig7(duration_s=60.0 * scale)),
        ("fig8", lambda: experiments.run_fig8(duration_s=90.0 * scale)),
        ("fig9a", lambda: experiments.run_fig9a(duration_s=20.0 * scale)),
        ("fig9b", lambda: experiments.run_fig9b(duration_s=30.0 * scale)),
        ("fig10", lambda: experiments.run_fig10(duration_s=60.0 * scale)),
        ("sec52", lambda: experiments.run_sec52(duration_s=30.0 * scale)),
        ("sec53", lambda: experiments.run_sec53(duration_s=60.0 * scale)),
        ("ext-l4s", lambda: experiments.run_ext_l4s(duration_s=30.0 * scale)),
        ("ext-gcc-contexts",
         lambda: experiments.run_ext_gcc_contexts(duration_s=30.0 * scale)),
        ("ext-app-classes",
         lambda: experiments.run_ext_app_classes(duration_s=30.0 * scale)),
        ("ext-jitterbuffer",
         lambda: experiments.run_ext_jitterbuffer(duration_s=40.0 * scale)),
        ("ext-contention",
         lambda: experiments.run_ext_contention(duration_s=10.0 * scale)),
    ]
    report_lines = ["# Athena reproduction report", ""]
    for name, runner in jobs:
        print(f"[{name}] running ...")
        result = runner()
        summary = result.summary()
        report_lines += [f"## {name}", "", "```", summary, "```", ""]
        try:
            written = export_figure_data(result, out_dir / name)
            for path in written:
                print(f"  wrote {path}")
        except TypeError:
            pass  # no CSV exporter for this result type
    report_path = out_dir / "REPORT.md"
    report_path.write_text("\n".join(report_lines), encoding="utf-8")
    print(f"\nWrote {report_path}")
    _print_cache_stats(cache)
    set_experiment_cache(None)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.smoke or args.name is None:
        return _sweep_seed_grid(args)
    from . import experiments
    from .experiments.common import set_experiment_cache

    sweeps: Dict[str, Callable] = {
        "proactive": experiments.sweep_proactive,
        "bsr-delay": experiments.sweep_bsr_delay,
        "bler": experiments.sweep_bler,
        "duplexing": experiments.sweep_duplexing,
        "scheduler-policy": experiments.sweep_scheduler_policy,
        "rlc-mode": experiments.sweep_rlc_mode,
    }
    sweep = sweeps.get(args.name)
    if sweep is None:
        print(f"unknown sweep {args.name!r}; choose from "
              f"{', '.join(sorted(sweeps))}", file=sys.stderr)
        return 2
    cache = _make_cache(args)
    set_experiment_cache(cache)
    try:
        print(sweep(duration_s=args.duration or 20.0, jobs=args.jobs).summary())
    finally:
        set_experiment_cache(None)
    _print_cache_stats(cache)
    return 0


def _sweep_seed_grid(args: argparse.Namespace) -> int:
    """Run a seed × access grid through the parallel batch executor."""
    from .core.report import format_table
    from .run import BatchExecutor, collect_summary, run_batch, sweep_grid
    from .run.batch import collect_call_summaries
    from .run.scenario import CallSpec, ScenarioConfig

    cache = _make_cache(args)
    if args.smoke:
        # CI smoke: a 2×2 grid of very short runs exercising both access
        # kinds end to end through the multi-process executor.
        seeds = [int(s) for s in (args.seeds or "7,8").split(",")]
        accesses = (args.access or "5g,emulated").split(",")
        duration_s = args.duration or 2.0
    else:
        seeds = [int(s) for s in (args.seeds or "7").split(",")]
        accesses = (args.access or "5g").split(",")
        duration_s = args.duration or 10.0
    # --calls N swaps the single call for an N-call cell; every call's QoE
    # is reported separately (one row per call per run).
    calls = None
    if args.calls is not None:
        if args.calls < 1:
            print("--calls must be >= 1", file=sys.stderr)
            return 2
        calls = [CallSpec(call_id=k) for k in range(args.calls)]
    # Every grid run carries the live streaming analytics on its bus, so
    # the sweep also smoke-tests the online path (the `diagnosed` column).
    base = ScenarioConfig(
        duration_s=duration_s, record_tbs=False, live_analysis=True,
        calls=calls,
    )
    variants = {kind: {"access": kind} for kind in accesses}
    specs = sweep_grid(base, seeds, variants)
    print(f"Running {len(specs)} sessions "
          f"({len(accesses)} access x {len(seeds)} seeds, "
          f"{duration_s:.0f} s each"
          + (f", {args.calls} calls/cell" if calls else "") + ") ...")
    # One warm worker pool serves every per-access phase of the grid
    # (forking a fresh executor per axis re-pays worker start-up).
    phases = [sweep_grid(base, seeds, {kind: variants[kind]}) for kind in variants]
    if calls:
        with BatchExecutor(jobs=args.jobs) as ex:
            runs = [
                run
                for phase in phases
                for run in run_batch(
                    phase, collect=collect_call_summaries, executor=ex,
                    cache=cache,
                )
            ]
        rows = [
            [
                f"{run.label}/call{int(row['call_id'])}",
                row["packets"],
                row["bitrate_kbps"],
                row["fps"],
                row["stalls"],
            ]
            for run in runs
            for row in run.value
        ]
        print(format_table(
            ["run", "packets", "bitrate (kbps, p50)", "fps (p50)", "stalls"],
            rows,
        ))
        _print_cache_stats(cache)
        return 0
    with BatchExecutor(jobs=args.jobs) as ex:
        runs = [
            run
            for phase in phases
            for run in run_batch(
                phase, collect=collect_summary, executor=ex, cache=cache
            )
        ]
    rows = [
        [
            run.label,
            run.value["packets"],
            run.value["bitrate_kbps"],
            run.value["fps"],
            run.value["stalls"],
            run.value["diagnosed"],
        ]
        for run in runs
    ]
    print(format_table(
        ["run", "packets", "bitrate (kbps, p50)", "fps (p50)", "stalls",
         "frames diagnosed"],
        rows,
    ))
    _print_cache_stats(cache)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .run.cache import DEFAULT_CACHE_DIR, ScenarioCache

    cache = ScenarioCache(cache_dir=args.cache_dir or DEFAULT_CACHE_DIR)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached scenario results from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"dir:      {stats['dir']}")
    print(f"entries:  {stats['entries']}")
    print(f"bytes:    {stats['total_bytes']} / {stats['max_bytes']}")
    print(f"salt:     {stats['salt']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="athena-repro",
        description="Athena (HotNets '24) reproduction: cross-layer "
        "measurement of video conferencing over simulated 5G.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a call and save its trace")
    run.add_argument("--duration", type=float, default=20.0)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--access", choices=("5g", "emulated"), default="5g")
    run.add_argument("--cross-mbps", type=float, default=0.0,
                     help="constant cross-traffic load in Mbps")
    run.add_argument("--aware-ran", action="store_true",
                     help="enable §5.2 application-aware scheduling")
    run.add_argument("--mask-ran-delay", action="store_true",
                     help="enable §5.3 RAN-aware congestion control")
    run.add_argument("--out", default="trace.jsonl")
    run.set_defaults(fn=_cmd_run)

    analyze = sub.add_parser("analyze", help="run Athena over a saved trace")
    analyze.add_argument("trace")
    analyze.add_argument("--synchronize", action="store_true",
                         help="align clocks from recorded sync exchanges "
                              "before analysis (a second streaming pass)")
    analyze.set_defaults(fn=_cmd_analyze)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("id", help="fig3|fig4|fig5|fig7|fig8|fig9a|fig9b|"
                                   "fig10|sec52|sec53|ext-l4s|"
                                   "ext-gcc-contexts|ext-app-classes|"
                                   "ext-jitterbuffer|ext-contention")
    figure.add_argument("--duration", type=float, default=None)
    figure.add_argument("--export", default=None, metavar="DIR",
                        help="write the figure's data series as CSVs")
    _add_cache_flags(figure)
    figure.set_defaults(fn=_cmd_figure)

    everything = sub.add_parser(
        "reproduce-all",
        help="regenerate every figure, export CSVs, write REPORT.md",
    )
    everything.add_argument("--out", default="reproduction")
    everything.add_argument("--scale", type=float, default=1.0,
                            help="duration multiplier toward paper scale")
    _add_cache_flags(everything)
    everything.set_defaults(fn=_cmd_reproduce_all)

    # `lint` is dispatched before argparse in main() so the analyzer owns its
    # whole argument vector; registered here only so -h lists it.
    sub.add_parser(
        "lint",
        help="run athena-lint (determinism & unit-safety rules "
             "ATH001-ATH010, ATH100, ATH102)",
        add_help=False,
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a design-choice ablation, or a seed x access grid "
             "through the parallel batch executor",
    )
    sweep.add_argument("name", nargs="?", default=None,
                       help="ablation: proactive|bsr-delay|bler|duplexing|"
                            "scheduler-policy|rlc-mode; omit for a "
                            "seed x access grid")
    sweep.add_argument("--duration", type=float, default=None)
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: one per CPU)")
    sweep.add_argument("--seeds", default=None, metavar="S1,S2,...",
                       help="grid mode: comma-separated seeds")
    sweep.add_argument("--access", default=None, metavar="KIND1,KIND2",
                       help="grid mode: comma-separated access kinds")
    sweep.add_argument("--smoke", action="store_true",
                       help="CI smoke grid: 2 seeds x both access kinds, "
                            "2 s runs")
    sweep.add_argument("--calls", type=int, default=None, metavar="N",
                       help="grid mode: N concurrent calls per cell "
                            "(per-call QoE rows)")
    _add_cache_flags(sweep)
    sweep.set_defaults(fn=_cmd_sweep)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the content-addressed scenario result cache",
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="scenario cache directory "
                            "(default: .athena-cache)")
    cache.set_defaults(fn=_cmd_cache)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from .analysis import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout closed early (e.g. piped into head); exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
