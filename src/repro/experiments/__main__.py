"""Command-line entry point for the reproduction experiments.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments figure4 [--trials N] [--attacks single,cooperative]
    python -m repro.experiments figure5
    python -m repro.experiments ablations
    python -m repro.experiments flood [--variants constant,bursty,rotating]
    python -m repro.experiments arena [--attacks ...] [--detectors ...]
                                      [--dir DIR] [--csv PATH] [--smoke]
    python -m repro.experiments trial [--metrics] [--trace PATH] [--profile]
                                      [--sample-interval S] [--serve-metrics PORT]
    python -m repro.experiments top --dir DIR   # live view of a campaign ledger

``figure4``, ``figure5``, ``ablations``, ``report`` and ``run`` accept
``--jobs N`` (worker processes; output is byte-identical to ``--jobs 1``)
and ``--cache-dir DIR`` (content-addressed trial result cache).
``campaign run``/``resume`` additionally accept ``--watch`` (in-place
progress line fed by streamed worker events) and ``--serve-metrics PORT``
(live OpenMetrics endpoint for the duration of the run).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments.config import ATTACK_TYPES, TableIConfig


def _positive_int(text: str) -> int:
    """argparse ``type`` for count flags: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes (1 = in-process; output is identical)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed trial result cache (JSONL, reusable)",
    )


def _make_executor(args: argparse.Namespace):
    """Build a TrialExecutor when --jobs/--cache-dir ask for one."""
    if args.jobs <= 1 and args.cache_dir is None:
        return None
    from repro.experiments.executor import TrialExecutor

    return TrialExecutor(jobs=args.jobs, cache_dir=args.cache_dir)


def _print_executor_stats(executor) -> None:
    if executor is not None and executor.stats.trials:
        print()
        print(executor.stats.format())


def _cmd_table1(args: argparse.Namespace) -> int:
    table = TableIConfig()
    print("Table I — simulation parameters")
    print(f"{'Parameter':<20} Value")
    for name, value in table.rows():
        print(f"{name:<20} {value}")
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.experiments.figure4 import (
        check_expected_shape,
        format_figure4,
        run_figure4,
    )

    attacks = tuple(args.attacks.split(","))
    for attack in attacks:
        if attack not in ATTACK_TYPES:
            print(f"unknown attack type {attack!r}", file=sys.stderr)
            return 2
    executor = _make_executor(args)
    rows = run_figure4(trials=args.trials, attacks=attacks, parallel=executor)
    print(format_figure4(rows))
    _print_executor_stats(executor)
    problems = check_expected_shape(rows)
    if problems:
        print("\nshape violations versus the paper:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nshape matches the paper: 100% w/ zero FP/FN in clusters 1-7, "
          "degradation in the renewal zone 8-10, zero FP everywhere")
    return 0


def _cmd_flood(args: argparse.Namespace) -> int:
    from repro.attacks.flood import FLOOD_VARIANTS
    from repro.experiments.flood import format_flood_sweep, run_flood_sweep

    variants = tuple(args.variants.split(","))
    for variant in variants:
        if variant not in FLOOD_VARIANTS:
            print(f"unknown flood variant {variant!r}", file=sys.stderr)
            return 2
    executor = _make_executor(args)
    result = run_flood_sweep(
        trials=args.trials,
        variants=variants,
        rate=args.rate,
        vehicles=args.vehicles,
        num_flooders=args.flooders,
        seed=args.seed,
        parallel=executor,
    )
    print(format_flood_sweep(result))
    _print_executor_stats(executor)
    return 0 if result.clean else 1


def _cmd_figure5(args: argparse.Namespace) -> int:
    from repro.experiments.figure5 import format_figure5, run_figure5

    executor = _make_executor(args)
    rows = run_figure5(parallel=executor)
    print(format_figure5(rows))
    _print_executor_stats(executor)
    return 0 if all(row.matches_paper for row in rows) else 1


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import (
        format_comparison,
        format_overhead,
        format_probe_ablation,
        run_baseline_comparison,
        run_overhead_sweep,
        run_probe_ablation,
    )

    from repro.experiments.congestion import format_congestion, run_congestion_sweep
    from repro.experiments.pdr import format_pdr, run_pdr

    executor = _make_executor(args)
    print(format_comparison(run_baseline_comparison(parallel=executor)))
    print()
    print(format_probe_ablation(run_probe_ablation()))
    print()
    print(format_overhead(run_overhead_sweep(parallel=executor)))
    print()
    print(format_congestion(run_congestion_sweep(parallel=executor)))
    print()
    print(format_pdr(run_pdr(parallel=executor)))
    _print_executor_stats(executor)
    return 0


def _cmd_urban(args: argparse.Namespace) -> int:
    from repro.experiments.urban import run_urban_trial

    result = run_urban_trial(seed=args.seed)
    print("Urban-topology detection (paper future work)")
    print(f"  attacker detected: {result.detected}")
    print(f"  false positives:   {result.false_positive}")
    print(f"  verdicts:          {result.verdicts}")
    print(f"  detection packets: {result.packets}")
    return 0 if result.detected and not result.false_positive else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    executor = _make_executor(args)
    result = generate_report(args.out, trials=args.trials, parallel=executor)
    print(f"report written to {result.report_path}")
    if result.profile is not None:
        # wall-clock figures: never the same twice, so not in report.md
        print("run profile (wall clock):", file=sys.stderr)
        print(result.profile.format(top=8), file=sys.stderr)
    for path in result.csv_paths:
        print(f"  csv: {path}")
    if result.failures:
        print("shape failures:")
        for failure in result.failures:
            print(f"  - {failure}")
    _print_executor_stats(executor)
    return 0 if result.passed else 1


def _cmd_trial(args: argparse.Namespace) -> int:
    from repro.experiments.config import TrialConfig
    from repro.experiments.trial import begin_trial

    serving = args.serve_metrics is not None
    try:
        config = TrialConfig(
            seed=args.seed,
            attack=args.attack,
            attacker_cluster=args.cluster,
            metrics=args.metrics or serving,
            trace=args.trace is not None,
            profile=args.profile,
            sample_interval=args.sample_interval,
        )
    except ValueError as error:
        print(f"invalid trial configuration: {error}", file=sys.stderr)
        return 2
    session = begin_trial(config)
    server = None
    if serving:
        from repro.obs import serve_metrics

        live = {"phase": "running", "seed": config.seed, "attack": config.attack}

        def _status() -> dict:
            return dict(live, sim_time=session.sim.now)

        server = serve_metrics(
            session.sim.obs.metrics, args.serve_metrics, status_fn=_status
        )
        print(f"serving {server.url}/metrics while the trial runs", flush=True)
    try:
        result = session.finish()
        if server is not None:
            live["phase"] = "finished"
        print(f"attack={result.attack} policy={result.policy_name} "
              f"detected={result.detected} fp={result.false_positive}")
        if result.metrics is not None and args.metrics:
            print("\ncounters:")
            for key, value in sorted(result.metrics.items()):
                if isinstance(value, int) and value:
                    print(f"  {key:<48} {value}")
        if result.trace_events is not None and args.trace is not None:
            try:
                with open(args.trace, "w") as sink:
                    for event in result.trace_events:
                        sink.write(event.to_json() + "\n")
            except OSError as error:
                print(f"cannot write trace: {error}", file=sys.stderr)
                return 2
            print(f"\ntrace: {len(result.trace_events)} events -> {args.trace}")
            if result.trace_dropped:
                print(
                    f"trace: {result.trace_dropped} events dropped past "
                    f"capacity; the trace and timelines are truncated"
                )
        if result.timelines:
            from repro.obs import format_timelines

            print("\ndetection timelines:")
            print(format_timelines(result.timelines))
        if result.series is not None:
            points = sum(len(p) for p in result.series.values())
            print(f"\ntime series: {len(result.series)} metrics, "
                  f"{points} points at {config.sample_interval}s cadence")
            if args.series is not None:
                session.sim.obs.timeseries.write_jsonl(args.series)
                print(f"  -> {args.series}")
        if result.profile is not None:
            print("\nrun profile:")
            print(result.profile.format())
        if server is not None and args.hold > 0:
            print(f"\nholding the metrics endpoint for {args.hold:.0f}s "
                  f"at {server.url}/metrics", flush=True)
            time.sleep(args.hold)
    finally:
        if server is not None:
            server.close()
    return 0


def _finish_campaign(campaign, args: argparse.Namespace) -> int:
    watch = getattr(args, "watch", False)
    port = getattr(args, "serve_metrics", None)
    stream = registry = server = None
    if watch or port is not None:
        if port is not None:
            from repro.obs import MetricsRegistry

            registry = MetricsRegistry()
        stream = campaign.make_aggregator(metrics=registry)
        if watch:
            from repro.experiments.progress import progress_line

            def _render(event) -> None:
                if event.kind in ("unit-done", "campaign-done"):
                    print(f"\r{progress_line(stream.status_dict())}   ",
                          end="", flush=True)

            stream.listener = _render
        if port is not None:
            from repro.obs import serve_metrics

            server = serve_metrics(
                registry, port, status_fn=lambda: campaign.status().to_dict()
            )
            print(f"serving {server.url}/metrics while the campaign runs",
                  flush=True)
    try:
        status = campaign.run(jobs=args.jobs, stream=stream)
    finally:
        if watch:
            print()
        if server is not None:
            server.close()
    print(status.format())
    if campaign.manifest["spec"].get("kind") == "figure4":
        from repro.experiments.figure4 import figure4_rows, format_figure4

        spec = campaign.manifest["spec"]
        rows = figure4_rows(
            campaign.results(),
            trials=int(spec["trials"]),
            attacks=tuple(spec["attacks"]),
            clusters=tuple(int(c) for c in spec["clusters"]),
        )
        print()
        print(format_figure4(rows))
    elif campaign.manifest["spec"].get("kind") == "arena":
        from repro.arena import aggregate_matrix, format_cells, format_matrix

        cells = aggregate_matrix(campaign.manifest["spec"], campaign.results())
        print()
        print(format_matrix(cells))
        print()
        print(format_cells(cells))
    return 0


def _cmd_arena(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.arena import (
        arena_csv,
        available_detectors,
        format_cells,
        format_matrix,
        run_matrix,
    )
    from repro.experiments.campaign import CampaignError

    num_vehicles = args.vehicles
    if args.smoke:
        attacks = ("wormhole", "adaptive")
        detectors = ("dri", "examiner")
        trials = 1
        if num_vehicles is None:
            num_vehicles = 20
    else:
        attacks = tuple(a for a in args.attacks.split(",") if a)
        detectors = tuple(d for d in args.detectors.split(",") if d)
        trials = args.trials
    for attack in attacks:
        if attack not in ATTACK_TYPES:
            print(f"unknown attack type {attack!r}", file=sys.stderr)
            return 2
    for detector in detectors:
        if detector not in available_detectors():
            print(
                f"unknown detector {detector!r} "
                f"(available: {', '.join(available_detectors())})",
                file=sys.stderr,
            )
            return 2

    def _run(directory) -> int:
        try:
            campaign, cells = run_matrix(
                directory,
                attacks=attacks,
                detectors=detectors,
                trials=trials,
                base_seed=args.base_seed,
                attacker_cluster=args.cluster,
                num_vehicles=num_vehicles,
                jobs=args.jobs,
            )
        except CampaignError as error:
            print(f"arena campaign failed: {error}", file=sys.stderr)
            return 2
        print(campaign.status().format())
        print()
        print(format_matrix(cells))
        print()
        print(format_cells(cells))
        if args.csv is not None:
            Path(args.csv).write_text(arena_csv(cells))
            print(f"\ncells -> {args.csv}")
        return 0

    total = len(attacks) * len(detectors) * trials
    print(
        f"arena: {len(attacks)} attacker(s) x {len(detectors)} detector(s) "
        f"x {trials} trial(s) = {total} units"
    )
    if args.dir is not None:
        return _run(args.dir)
    with tempfile.TemporaryDirectory(prefix="blackdp-arena-") as tmp:
        return _run(tmp)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import Campaign, CampaignError

    spec = {
        "kind": "figure4",
        "trials": args.trials,
        "attacks": list(args.attacks.split(",")),
        "clusters": list(range(1, 11)),
        "base_seed": args.base_seed,
    }
    for attack in spec["attacks"]:
        if attack not in ATTACK_TYPES:
            print(f"unknown attack type {attack!r}", file=sys.stderr)
            return 2
    try:
        campaign = Campaign.create(args.dir, name=args.name, spec=spec)
    except CampaignError as error:
        print(f"cannot create campaign: {error}", file=sys.stderr)
        return 2
    print(f"campaign {args.name!r}: {len(campaign.configs)} units -> {args.dir}")
    return _finish_campaign(campaign, args)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import Campaign, CampaignError

    try:
        campaign = Campaign.open(args.dir)
    except CampaignError as error:
        print(f"cannot resume campaign: {error}", file=sys.stderr)
        return 2
    status = campaign.status()
    if status.done:
        print(status.format())
        return _finish_campaign(campaign, args)
    print(f"resuming: {status.completed}/{status.total} units already done")
    return _finish_campaign(campaign, args)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import Campaign, CampaignError

    try:
        campaign = Campaign.open(args.dir)
    except CampaignError as error:
        if args.json:
            print(json.dumps({"error": str(error)}))
        else:
            print(f"cannot read campaign: {error}", file=sys.stderr)
        return 2
    status = campaign.status()
    if args.json:
        print(json.dumps(status.to_dict(), sort_keys=True))
    else:
        print(status.format())
    return 0 if status.done else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.experiments.progress import load_ledger_view, render_top

    while True:
        view = load_ledger_view(args.dir)
        screen = render_top(view)
        if args.once:
            print(screen)
            return 0
        # Full-screen refresh: clear, home, redraw.
        print(f"\x1b[2J\x1b[H{screen}", flush=True)
        if view.complete:
            return 0
        time.sleep(args.interval)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.scenario_file import (
        ScenarioError,
        load_scenario,
        run_scenario,
    )

    try:
        scenario = load_scenario(args.config)
    except (ScenarioError, OSError) as error:
        print(f"cannot load scenario: {error}", file=sys.stderr)
        return 2
    executor = _make_executor(args)
    outcome = run_scenario(scenario, parallel=executor)
    print(outcome.summary())
    _print_executor_stats(executor)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="BlackDP reproduction experiments (ICDCS 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="print Table I").set_defaults(func=_cmd_table1)
    figure4 = sub.add_parser("figure4", help="regenerate Figure 4")
    figure4.add_argument("--trials", type=_positive_int, default=150)
    figure4.add_argument("--attacks", default="single,cooperative")
    _add_parallel_args(figure4)
    figure4.set_defaults(func=_cmd_figure4)
    figure5 = sub.add_parser("figure5", help="regenerate Figure 5")
    _add_parallel_args(figure5)
    figure5.set_defaults(func=_cmd_figure5)
    ablations = sub.add_parser("ablations", help="run ablations A-D + PDR")
    _add_parallel_args(ablations)
    ablations.set_defaults(func=_cmd_ablations)
    urban = sub.add_parser("urban", help="urban-topology detection trial")
    urban.add_argument("--seed", type=int, default=3)
    urban.set_defaults(func=_cmd_urban)
    report = sub.add_parser(
        "report", help="run everything, write report.md + CSVs"
    )
    report.add_argument("--out", default="report")
    report.add_argument("--trials", type=_positive_int, default=20)
    _add_parallel_args(report)
    report.set_defaults(func=_cmd_report)
    arena = sub.add_parser(
        "arena", help="adversary-detector arena: attackers x detectors matrix"
    )
    arena.add_argument(
        "--dir", default=None, metavar="DIR",
        help="campaign ledger directory (resumable; temp dir when omitted)",
    )
    arena.add_argument(
        "--attacks",
        default="single,cooperative,grayhole,wormhole,sybil,adaptive,flood",
        help="comma-separated attacker families (matrix rows)",
    )
    arena.add_argument(
        "--detectors",
        default="examiner,dri,sequence,peak,static,trust,naive,sketch",
        help="comma-separated detector roster (matrix columns)",
    )
    arena.add_argument("--trials", type=_positive_int, default=3, metavar="N")
    arena.add_argument("--base-seed", type=int, default=1)
    arena.add_argument(
        "--cluster", type=int, default=5, help="attacker placement cluster"
    )
    arena.add_argument(
        "--vehicles", type=_positive_int, default=None, metavar="N",
        help="shrink the Table I world (default: paper-scale; smoke: 20)",
    )
    arena.add_argument(
        "--smoke", action="store_true",
        help="2x2x1 sanity matrix (wormhole,adaptive x dri,examiner) "
             "in a 20-vehicle world",
    )
    arena.add_argument(
        "--csv", metavar="PATH", default=None, help="write per-cell CSV"
    )
    arena.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
    arena.set_defaults(func=_cmd_arena)
    campaign = sub.add_parser(
        "campaign", help="resumable sweeps with an on-disk run ledger"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="create a campaign directory and run it to completion"
    )
    campaign_run.add_argument("--dir", required=True, metavar="DIR")
    campaign_run.add_argument("--name", default="figure4")
    campaign_run.add_argument("--trials", type=_positive_int, default=150)
    campaign_run.add_argument("--attacks", default="single,cooperative")
    campaign_run.add_argument("--base-seed", type=int, default=1000)
    campaign_run.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
    campaign_run.set_defaults(func=_cmd_campaign_run)
    campaign_resume = campaign_sub.add_parser(
        "resume", help="continue an interrupted campaign without recomputing"
    )
    campaign_resume.add_argument("--dir", required=True, metavar="DIR")
    campaign_resume.add_argument("--jobs", type=_positive_int, default=1, metavar="N")
    campaign_resume.set_defaults(func=_cmd_campaign_resume)
    for streaming in (campaign_run, campaign_resume):
        streaming.add_argument(
            "--watch", action="store_true",
            help="render an in-place progress line from streamed events",
        )
        streaming.add_argument(
            "--serve-metrics", type=int, default=None, metavar="PORT",
            help="serve a live OpenMetrics endpoint while the campaign runs",
        )
    campaign_status = campaign_sub.add_parser(
        "status", help="report how many units of a campaign directory are cached"
    )
    campaign_status.add_argument("--dir", required=True, metavar="DIR")
    campaign_status.add_argument(
        "--json", action="store_true", help="machine-readable status"
    )
    campaign_status.set_defaults(func=_cmd_campaign_status)
    top = sub.add_parser(
        "top", help="live view of a campaign ledger (streamed events feed)"
    )
    top.add_argument("--dir", required=True, metavar="DIR")
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh cadence in seconds",
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    top.set_defaults(func=_cmd_top)
    run = sub.add_parser("run", help="run a JSON scenario file")
    run.add_argument("--config", required=True)
    _add_parallel_args(run)
    run.set_defaults(func=_cmd_run)
    flood = sub.add_parser(
        "flood", help="RREQ-flood detection sweep (sketch monitors)"
    )
    flood.add_argument("--trials", type=_positive_int, default=5)
    flood.add_argument(
        "--variants", default="constant,bursty,rotating",
        help="comma-separated flood variants to sweep",
    )
    flood.add_argument("--rate", type=float, default=50.0)
    flood.add_argument("--vehicles", type=_positive_int, default=60)
    flood.add_argument("--flooders", type=_positive_int, default=1)
    flood.add_argument("--seed", type=int, default=9000)
    _add_parallel_args(flood)
    flood.set_defaults(func=_cmd_flood)
    trial = sub.add_parser(
        "trial", help="run one seeded trial with optional instrumentation"
    )
    trial.add_argument("--seed", type=int, default=1)
    trial.add_argument("--attack", default="single", choices=ATTACK_TYPES)
    trial.add_argument("--cluster", type=int, default=5)
    trial.add_argument(
        "--metrics", action="store_true", help="print nonzero counters"
    )
    trial.add_argument(
        "--trace", metavar="PATH", default=None, help="write a JSONL trace"
    )
    trial.add_argument(
        "--profile", action="store_true", help="print the run profile"
    )
    trial.add_argument(
        "--sample-interval", type=float, default=0.0, metavar="S",
        help="sample metrics into time series every S sim-seconds",
    )
    trial.add_argument(
        "--series", metavar="PATH", default=None,
        help="write the sampled time series as JSONL (needs --sample-interval)",
    )
    trial.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="serve /metrics, /healthz and /status while the trial runs "
             "(port 0 binds an ephemeral port)",
    )
    trial.add_argument(
        "--hold", type=float, default=0.0, metavar="S",
        help="keep the metrics endpoint up S seconds after the trial",
    )
    trial.set_defaults(func=_cmd_trial)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt as interrupt:
        # TrialRunInterrupted carries a partial-result summary; a bare
        # Ctrl-C outside a sweep just reports the interrupt.
        describe = getattr(interrupt, "summary", None)
        message = describe() if callable(describe) else "interrupted"
        print(f"\n{message}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
