"""One-shot report generation: every experiment, rendered and saved.

``generate_report`` runs the full evaluation (Figure 4, Figure 5, all
ablations, PDR, the urban trial), renders ASCII charts, writes per-
experiment CSVs, and produces a single markdown report with a
paper-vs-measured verdict per experiment — the machine-written
counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.metrics.plots import bar_chart, csv_rows, line_chart
from repro.obs.profiler import ProfileReport


@dataclass
class ReportResult:
    """Where the report landed and whether every shape check passed."""

    report_path: Path
    csv_paths: list[Path]
    passed: bool
    failures: list[str]
    #: the profiled trial's report; its wall-clock lines stay out of
    #: ``report.md``, which holds only what a seeded run reproduces
    profile: ProfileReport | None = None


def figure4_chart(rows) -> str:
    """Accuracy-vs-cluster line chart, one series per attack type."""
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row.attack, []).append((row.cluster, row.accuracy))
    return line_chart(
        series,
        title="Figure 4 — detection accuracy vs attacker cluster",
        y_min=0.0,
        y_max=1.0,
    )


def figure5_chart(rows) -> str:
    """Detection-packet bar chart per scenario."""
    labels = [f"{row.attack}/{row.scenario}" for row in rows]
    values = [float(row.packets) for row in rows]
    return bar_chart(
        labels,
        values,
        title="Figure 5 — detection packets per scenario",
        value_format="{:.0f}",
    )


def figure4_csv(rows) -> str:
    return csv_rows(
        ["attack", "cluster", "trials", "accuracy", "tpr", "fpr", "fnr"],
        [
            (r.attack, r.cluster, r.trials, r.accuracy, r.true_positive_rate,
             r.false_positive_rate, r.false_negative_rate)
            for r in rows
        ],
    )


def figure5_csv(rows) -> str:
    return csv_rows(
        ["attack", "scenario", "packets", "paper_expected", "verdict"],
        [(r.attack, r.scenario, r.packets, r.expected, r.verdict) for r in rows],
    )


def pdr_csv(rows) -> str:
    return csv_rows(
        ["attack", "defense", "sent", "delivered", "pdr"],
        [(r.attack, r.defense, r.sent, r.delivered, r.pdr) for r in rows],
    )


def congestion_csv(rows) -> str:
    return csv_rows(
        ["fog", "reports", "mean_latency", "max_latency", "offloaded", "max_queue"],
        [
            (r.fog, r.reports, r.mean_latency, r.p_max_latency, r.offloaded,
             r.max_queue)
            for r in rows
        ],
    )


def generate_report(
    out_dir: str | Path, *, trials: int = 20, parallel=None
) -> ReportResult:
    """Run everything and write ``report.md`` plus CSVs into ``out_dir``.

    ``trials`` scales Figure 4 (the paper used 150); everything else is
    deterministic.  ``parallel`` (a
    :class:`~repro.experiments.executor.TrialExecutor`) fans the
    independent trials of every section out over worker processes; the
    report text is identical either way.
    """
    from repro.experiments.congestion import format_congestion, run_congestion_sweep
    from repro.experiments.figure4 import (
        check_expected_shape,
        format_figure4,
        run_figure4,
    )
    from repro.experiments.figure5 import format_figure5, run_figure5
    from repro.experiments.pdr import format_pdr, run_pdr
    from repro.experiments.sweeps import (
        format_comparison,
        format_probe_ablation,
        run_baseline_comparison,
        run_probe_ablation,
    )
    from repro.experiments.urban import run_urban_trial

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    csv_paths: list[Path] = []

    def save_csv(name: str, content: str) -> None:
        path = out / name
        path.write_text(content)
        csv_paths.append(path)

    sections: list[str] = ["# BlackDP reproduction report", ""]

    # Figure 4 --------------------------------------------------------
    fig4 = run_figure4(trials=trials, parallel=parallel)
    failures.extend(check_expected_shape(fig4))
    save_csv("figure4.csv", figure4_csv(fig4))
    sections += [
        "## Figure 4", "```", figure4_chart(fig4), "",
        format_figure4(fig4), "```", "",
    ]

    # Figure 5 --------------------------------------------------------
    fig5 = run_figure5(parallel=parallel)
    for row in fig5:
        if not row.matches_paper:
            failures.append(
                f"figure5 {row.attack}/{row.scenario}: {row.packets} != "
                f"{row.expected}"
            )
    save_csv("figure5.csv", figure5_csv(fig5))
    sections += ["## Figure 5", "```", figure5_chart(fig5), "",
                 format_figure5(fig5), "```", ""]

    # Ablations -------------------------------------------------------
    comparison = run_baseline_comparison(parallel=parallel)
    probe = run_probe_ablation()
    congestion = run_congestion_sweep(parallel=parallel)
    save_csv("congestion.csv", congestion_csv(congestion))
    if probe.blackdp_false_positives:
        failures.append("probe ablation: BlackDP produced false positives")
    sections += [
        "## Ablations", "```", format_comparison(comparison), "",
        format_probe_ablation(probe), "", format_congestion(congestion),
        "```", "",
    ]

    # Run profile -----------------------------------------------------
    from repro.experiments.config import TrialConfig
    from repro.experiments.trial import run_trial

    profiled = run_trial(TrialConfig(seed=1, profile=True, metrics=True))
    profile = profiled.profile
    if profile is None or profile.events == 0:
        failures.append("profiled trial executed no events")
    else:
        packets_sent = sum(
            value
            for key, value in profiled.metrics.items()
            if key.startswith("net.sent") and isinstance(value, int)
        )
        sections += [
            "## Run profile (one single-attack trial, seed 1)", "```",
            profile.format_counts(top=8), "",
            f"net packets sent: {packets_sent}", "```", "",
        ]

    # Detection timeline ----------------------------------------------
    from repro.obs import format_timelines

    traced = run_trial(
        TrialConfig(seed=7, attack="cooperative", trace=True)
    )
    if not traced.timelines:
        failures.append("traced cooperative trial produced no timelines")
    else:
        save_csv(
            "timelines.csv",
            csv_rows(
                ["suspect", "verdict", "time_to_detection", "time_to_isolation",
                 "probes", "propagated_to"],
                [
                    (t.suspect, t.verdict or "", t.time_to_detection,
                     t.time_to_isolation, t.probes, len(t.propagated_to))
                    for t in traced.timelines
                ],
            ),
        )
        sections += [
            "## Detection timeline (one cooperative-attack trial, seed 7)",
            "```", format_timelines(traced.timelines), "```", "",
        ]

    # RREQ-flood detection (sketch monitors) --------------------------
    from repro.experiments.flood import (
        flood_csv,
        format_flood_sweep,
        run_flood_sweep,
    )

    flood = run_flood_sweep(
        trials=2, variants=("constant", "rotating"), vehicles=40,
        parallel=parallel,
    )
    if not flood.clean:
        failures.append(
            "flood sweep: a seeded flooder escaped or an honest vehicle "
            "was convicted"
        )
    save_csv("flood.csv", flood_csv(flood))
    sections += [
        "## RREQ-flood detection (sketch monitors)", "```",
        format_flood_sweep(flood), "```", "",
    ]

    # Adversary-detector arena ----------------------------------------
    from repro.arena import arena_csv, format_matrix, run_matrix

    _, arena_cells = run_matrix(
        out / "arena-ledger",
        attacks=("wormhole", "sybil", "adaptive"),
        detectors=("examiner", "dri", "sequence"),
        trials=1, base_seed=1, num_vehicles=20,
    )
    arena_by_key = {(c.attack, c.detector): c for c in arena_cells}
    for (attack, detector), expected in (
        (("wormhole", "examiner"), False),
        (("wormhole", "dri"), True),
        (("adaptive", "examiner"), True),
        (("adaptive", "sequence"), False),
    ):
        cell = arena_by_key[(attack, detector)]
        if (cell.detection_rate > 0) != expected:
            failures.append(
                f"arena: {attack} x {detector} detection "
                f"{cell.detection_rate:.2f}, expected "
                f"{'>0' if expected else '0'}"
            )
    save_csv("arena.csv", arena_csv(arena_cells))
    sections += [
        "## Adversary-detector arena (20-vehicle worlds, 1 seed/cell)",
        "```", format_matrix(arena_cells), "```", "",
    ]

    # PDR + urban -----------------------------------------------------
    pdr = run_pdr(parallel=parallel)
    save_csv("pdr.csv", pdr_csv(pdr))
    urban = run_urban_trial()
    if not urban.detected or urban.false_positive:
        failures.append("urban trial: detection failed or false positive")
    sections += [
        "## PDR and urban extension", "```", format_pdr(pdr), "",
        f"urban: detected={urban.detected} fp={urban.false_positive} "
        f"packets={urban.packets}", "```", "",
    ]

    verdict = "PASS" if not failures else "FAIL"
    sections += [f"## Verdict: {verdict}", ""]
    for failure in failures:
        sections.append(f"- {failure}")
    report_path = out / "report.md"
    report_path.write_text("\n".join(sections) + "\n")
    return ReportResult(
        report_path=report_path,
        csv_paths=csv_paths,
        passed=not failures,
        failures=failures,
        profile=profile,
    )
