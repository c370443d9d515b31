"""Figure 4: detection accuracy / FP / FN versus attacker cluster.

For each attack type (single, cooperative) and each attacker cluster
1-10, run ``trials`` seeded repetitions and accumulate a confusion
matrix.  The paper's expected shape: 100 % accuracy with zero false
positives and negatives for clusters 1-7; accuracy and TPR drop (FNR
rises) in the renewal zone 8-10 where attackers act legitimately, flee,
or renew their pseudonyms mid-detection; FPR stays zero everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import (
    ATTACK_COOPERATIVE,
    ATTACK_SINGLE,
    TableIConfig,
    TrialConfig,
    point_seed,
)
from repro.experiments.executor import TrialExecutor, TrialSummary
from repro.metrics import ConfusionMatrix, wilson_interval


@dataclass(frozen=True)
class Figure4Row:
    """One plotted point: one attack type at one attacker cluster.

    ``accuracy_low``/``accuracy_high`` are the 95 % Wilson interval over
    the trial count, so single-trial wiggles are not over-read.
    """

    attack: str
    cluster: int
    trials: int
    accuracy: float
    true_positive_rate: float
    false_positive_rate: float
    false_negative_rate: float
    accuracy_low: float = 0.0
    accuracy_high: float = 1.0


def accumulate_point(
    summaries: list[TrialSummary],
) -> tuple[ConfusionMatrix, int]:
    """Fold one sweep point's trials into ``(matrix, fp_trials)``.

    Each trial is one classification decision — exactly one matrix
    entry — keeping the matrix total (and the Wilson interval
    denominator) equal to the trial count.  Honest-node convictions are
    tallied *separately* as ``fp_trials``: a trial can both convict the
    attacker (a true positive on the detection axis) and convict an
    honest bystander, and folding that second event into the matrix as
    an extra ``(predicted=True, actual=False)`` entry — as an earlier
    revision did — inflated the denominator and skewed every rate for
    the points it touched.
    """
    matrix = ConfusionMatrix()
    fp_trials = 0
    for summary in summaries:
        matrix.record(predicted=summary.detected, actual=summary.attack_present)
        if summary.false_positive:
            fp_trials += 1
    return matrix, fp_trials


def run_figure4(
    *,
    trials: int = 150,
    attacks: tuple[str, ...] = (ATTACK_SINGLE, ATTACK_COOPERATIVE),
    clusters: tuple[int, ...] = tuple(range(1, 11)),
    base_seed: int = 1000,
    table: TableIConfig | None = None,
    parallel: TrialExecutor | None = None,
) -> list[Figure4Row]:
    """Regenerate Figure 4's series.  ``trials=150`` matches the paper.

    ``parallel`` fans the ``attacks × clusters × trials`` independent
    seeded simulations over a worker pool; results are re-keyed by
    ``(attack, cluster, seed)``, so rows are byte-identical to the
    serial run.
    """
    executor = parallel or TrialExecutor()
    configs = figure4_configs(
        trials=trials,
        attacks=attacks,
        clusters=clusters,
        base_seed=base_seed,
        table=table,
    )
    summaries = executor.run_trials(configs)
    return figure4_rows(
        summaries, trials=trials, attacks=attacks, clusters=clusters
    )


def figure4_configs(
    *,
    trials: int = 150,
    attacks: tuple[str, ...] = (ATTACK_SINGLE, ATTACK_COOPERATIVE),
    clusters: tuple[int, ...] = tuple(range(1, 11)),
    base_seed: int = 1000,
    table: TableIConfig | None = None,
) -> list[TrialConfig]:
    """The sweep's work units in canonical submission order.

    Split out of :func:`run_figure4` so resumable campaigns can
    enumerate exactly the same units (and so their manifests line up
    index-for-index with a direct run).
    """
    table = table or TableIConfig()
    return [
        TrialConfig(
            seed=point_seed(base_seed, attack, cluster, trial_index),
            attack=attack,
            attacker_cluster=cluster,
            table=table,
        )
        for attack in attacks
        for cluster in clusters
        for trial_index in range(trials)
    ]


def figure4_rows(
    summaries: list[TrialSummary],
    *,
    trials: int,
    attacks: tuple[str, ...] = (ATTACK_SINGLE, ATTACK_COOPERATIVE),
    clusters: tuple[int, ...] = tuple(range(1, 11)),
) -> list[Figure4Row]:
    """Fold per-trial summaries (in :func:`figure4_configs` order) into
    the plotted rows."""
    points = [(attack, cluster) for attack in attacks for cluster in clusters]
    rows = []
    for point_index, (attack, cluster) in enumerate(points):
        matrix, fp_trials = accumulate_point(
            summaries[point_index * trials : (point_index + 1) * trials]
        )
        interval = wilson_interval(matrix.tp + matrix.tn, matrix.total)
        rows.append(
            Figure4Row(
                attack=attack,
                cluster=cluster,
                trials=trials,
                accuracy=matrix.accuracy,
                true_positive_rate=matrix.true_positive_rate,
                false_positive_rate=fp_trials / trials if trials else 0.0,
                false_negative_rate=matrix.false_negative_rate,
                accuracy_low=interval.low,
                accuracy_high=interval.high,
            )
        )
    return rows


def format_figure4(rows: list[Figure4Row]) -> str:
    """Render the series as the table behind the paper's Figure 4."""
    lines = [
        "Figure 4 — single and cooperative black hole attacks",
        f"{'attack':<12} {'cluster':>7} {'accuracy':>9} {'95% CI':>16} "
        f"{'TPR':>6} {'FPR':>6} {'FNR':>6}",
    ]
    for row in rows:
        ci = f"[{row.accuracy_low:.3f}, {row.accuracy_high:.3f}]"
        lines.append(
            f"{row.attack:<12} {row.cluster:>7d} {row.accuracy:>9.3f} "
            f"{ci:>16} {row.true_positive_rate:>6.3f} "
            f"{row.false_positive_rate:>6.3f} {row.false_negative_rate:>6.3f}"
        )
    return "\n".join(lines)


def check_expected_shape(rows: list[Figure4Row]) -> list[str]:
    """Assertions the paper's Figure 4 makes; returns a list of violations
    (empty = the reproduction matches the expected shape)."""
    problems = []
    for row in rows:
        if row.false_positive_rate > 0.0:
            problems.append(
                f"{row.attack} cluster {row.cluster}: FPR "
                f"{row.false_positive_rate:.3f} > 0"
            )
        # Outside the renewal zone the paper reports exactly 100 %.  Our
        # channel is physical (moving relays can drop the attacker's
        # second-round RREP), which occasionally lands a trial in the
        # paper's own "can only prevent ... cannot detect" case, so the
        # check allows a small prevention-only tail.
        if row.cluster <= 7 and row.accuracy < 0.95:
            problems.append(
                f"{row.attack} cluster {row.cluster}: accuracy "
                f"{row.accuracy:.3f} below the 1.0 the paper reports "
                f"outside the renewal zone"
            )
        if row.cluster >= 8 and row.trials >= 20 and row.accuracy > 0.95:
            problems.append(
                f"{row.attack} cluster {row.cluster}: accuracy "
                f"{row.accuracy:.3f} did not drop inside the renewal zone"
            )
    return problems
