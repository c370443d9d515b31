"""RREQ-flood detection sweep: the sketch monitors under attack.

For each flood variant (constant, bursty, rotating-pseudonym) this
driver runs seeded trials with aggregate monitors installed and
reports detection rate, honest false positives, and time-to-detection
— the scenario family DPRAODV's dynamic threshold targets, measured on
this reproduction's sketch implementation.

Trials are short: flood detection happens within a handful of epoch
ticks, so the settle phase does not need the probe protocol's 40 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.flood import FLOOD_VARIANTS, FloodPolicy
from repro.experiments.config import ATTACK_FLOOD, TableIConfig, TrialConfig
from repro.experiments.executor import TrialExecutor, TrialSummary, summarize_trial
from repro.experiments.trial import run_trial
from repro.sketch import SketchConfig

#: Default settle window for flood trials (seconds of virtual time).
FLOOD_SETTLE = 12.0


@dataclass(frozen=True)
class FloodRow:
    """Aggregated outcome of one flood variant."""

    variant: str
    rate: float
    trials: int
    detected: int
    false_positives: int
    mean_detection_time: float | None

    @property
    def all_detected(self) -> bool:
        return self.detected == self.trials


@dataclass
class FloodSweepResult:
    rows: list[FloodRow] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Every seeded flooder convicted, zero honest convictions."""
        return all(row.all_detected and row.false_positives == 0 for row in self.rows)


def flood_trial_config(
    *,
    seed: int,
    variant: str,
    rate: float = 50.0,
    vehicles: int = 60,
    attacker_cluster: int = 5,
    num_flooders: int = 1,
    settle_time: float = FLOOD_SETTLE,
    sketch: SketchConfig | None = None,
) -> TrialConfig:
    """One flood trial: monitors on, short settle window."""
    return TrialConfig(
        seed=seed,
        attack=ATTACK_FLOOD,
        attacker_cluster=attacker_cluster,
        table=TableIConfig(num_vehicles=vehicles),
        flood=FloodPolicy(rate=rate, variant=variant),
        num_flooders=num_flooders,
        sketch=sketch or SketchConfig(),
        settle_time=settle_time,
    )


def run_flood_sweep(
    *,
    trials: int = 5,
    variants: tuple[str, ...] = FLOOD_VARIANTS,
    rate: float = 50.0,
    vehicles: int = 60,
    seed: int = 9000,
    num_flooders: int = 1,
    parallel: TrialExecutor | None = None,
) -> FloodSweepResult:
    """Run ``trials`` seeded trials per variant and aggregate."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for variant in variants:
        if variant not in FLOOD_VARIANTS:
            raise ValueError(f"unknown flood variant {variant!r}")
    result = FloodSweepResult()
    for offset, variant in enumerate(variants):
        configs = [
            flood_trial_config(
                seed=seed + 1000 * offset + index,
                variant=variant,
                rate=rate,
                vehicles=vehicles,
                num_flooders=num_flooders,
            )
            for index in range(trials)
        ]
        if parallel is not None:
            summaries = parallel.run_trials(configs)
        else:
            summaries = [
                summarize_trial(config, run_trial(config)) for config in configs
            ]
        result.rows.append(_aggregate(variant, rate, configs, summaries))
    return result


def _aggregate(
    variant: str,
    rate: float,
    configs: list[TrialConfig],
    summaries: list[TrialSummary],
) -> FloodRow:
    detection_times = [
        summary.first_conviction_at - config.warmup
        for config, summary in zip(configs, summaries)
        if summary.detected and summary.first_conviction_at is not None
    ]
    return FloodRow(
        variant=variant,
        rate=rate,
        trials=len(summaries),
        detected=sum(1 for summary in summaries if summary.detected),
        false_positives=sum(
            summary.convicted_honest for summary in summaries
        ),
        mean_detection_time=(
            sum(detection_times) / len(detection_times) if detection_times else None
        ),
    )


def flood_csv(result: FloodSweepResult) -> str:
    """CSV rows for the report bundle."""
    lines = ["variant,rate,trials,detected,false_positives,mean_detection_time"]
    for row in result.rows:
        mean = (
            f"{row.mean_detection_time:.3f}"
            if row.mean_detection_time is not None
            else ""
        )
        lines.append(
            f"{row.variant},{row.rate},{row.trials},{row.detected},"
            f"{row.false_positives},{mean}"
        )
    return "\n".join(lines) + "\n"


def format_flood_sweep(result: FloodSweepResult) -> str:
    """Printable table of the sweep."""
    lines = [
        "RREQ-flood detection (sketch monitors, dynamic threshold)",
        f"{'variant':<10} {'rate/s':>7} {'trials':>7} {'detected':>9} "
        f"{'honest FP':>10} {'mean t_detect':>14}",
    ]
    for row in result.rows:
        mean = (
            f"{row.mean_detection_time:.2f}s"
            if row.mean_detection_time is not None
            else "-"
        )
        lines.append(
            f"{row.variant:<10} {row.rate:>7.1f} {row.trials:>7} "
            f"{row.detected:>4}/{row.trials:<4} {row.false_positives:>10} {mean:>14}"
        )
    verdict = "clean" if result.clean else "NOT CLEAN"
    lines.append(
        f"sweep verdict: {verdict} (all flooders convicted, zero honest convictions)"
        if result.clean
        else f"sweep verdict: {verdict}"
    )
    return "\n".join(lines)
