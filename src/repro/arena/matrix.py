"""The arena matrix: attackers × detectors × seeds, scored per cell.

Every cell of the matrix runs ``trials`` independently seeded trials of
one attacker family under exactly one detector (plus, for the
``examiner`` column, the paper's full verification pipeline) and scores
the pairing on four axes:

- **detection rate** — trials in which at least one attacker pseudonym
  was convicted;
- **honest FP rate** — trials in which any honest pseudonym was
  convicted;
- **median time-to-isolation** — suspicion → final revocation
  propagation, over detected trials (reconstructed from the detection
  kinds of the trace);
- **overhead** — mean whole-trial radio+backbone packets and radio
  bytes, the cost axis detectors trade against.

The sweep runs through the resumable campaign ledger
(:mod:`repro.experiments.campaign`), so a killed matrix continues where
it stopped and a finished one re-renders from its result cache for free.
Seeds derive from :func:`repro.experiments.config.point_seed` with a
composite ``attack|detector`` point label, so every cell draws a
decorrelated seed range and the same ``--base-seed`` always reproduces
the same matrix byte for byte.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path

from repro.arena.base import ArenaConfig
from repro.experiments.campaign import Campaign
from repro.experiments.config import TableIConfig, TrialConfig, point_seed
from repro.net import ChannelConfig
from repro.obs import DETECTION_KINDS

#: Attacker families the full matrix sweeps (rows).
DEFAULT_ATTACKS = (
    "single",
    "cooperative",
    "grayhole",
    "wormhole",
    "sybil",
    "adaptive",
    "flood",
)

#: Detector roster the full matrix sweeps (columns).
DEFAULT_DETECTORS = (
    "examiner",
    "dri",
    "sequence",
    "peak",
    "static",
    "trust",
    "naive",
    "sketch",
)


def cell_configs(
    attack: str,
    detector: str,
    *,
    base_seed: int,
    trials: int,
    attacker_cluster: int = 5,
    num_vehicles: int | None = None,
) -> list[TrialConfig]:
    """The seeded trial configs of one ``attack × detector`` cell.

    Trace captures only :data:`~repro.obs.DETECTION_KINDS`: the
    time-to-isolation column reads nothing else, and leaving the
    per-packet ``net.*`` records out keeps the medium on its obs-dark
    fast path.  The channel accounts bytes (the overhead column).  Both
    are constant across the matrix so no cell pays a cost another
    doesn't.  ``num_vehicles`` shrinks the Table I world — smoke runs
    and tests use 20-vehicle worlds that finish in milliseconds.
    """
    table = (
        TableIConfig() if num_vehicles is None
        else TableIConfig(num_vehicles=num_vehicles)
    )
    return [
        TrialConfig(
            seed=point_seed(
                base_seed, f"{attack}|{detector}", attacker_cluster, index
            ),
            attack=attack,
            attacker_cluster=attacker_cluster,
            table=table,
            arena=ArenaConfig(detectors=(detector,)),
            trace=DETECTION_KINDS,
            channel=ChannelConfig(account_bytes=True),
        )
        for index in range(trials)
    ]


def arena_spec(
    *,
    attacks: tuple[str, ...] = DEFAULT_ATTACKS,
    detectors: tuple[str, ...] = DEFAULT_DETECTORS,
    trials: int = 3,
    base_seed: int = 1,
    attacker_cluster: int = 5,
    num_vehicles: int | None = None,
) -> dict:
    """The plain-data campaign spec (manifest form) of one matrix."""
    spec = {
        "kind": "arena",
        "attacks": list(attacks),
        "detectors": list(detectors),
        "trials": int(trials),
        "base_seed": int(base_seed),
        "attacker_cluster": int(attacker_cluster),
    }
    if num_vehicles is not None:
        spec["num_vehicles"] = int(num_vehicles)
    return spec


def expand_arena_spec(spec: dict) -> list[TrialConfig]:
    """Re-enumerate a matrix's work units from its manifest spec.

    Attack-major, then detector, then trial index — the fixed order
    :func:`aggregate_matrix` relies on to zip summaries back to cells.
    """
    configs: list[TrialConfig] = []
    for attack in spec["attacks"]:
        for detector in spec["detectors"]:
            configs.extend(
                cell_configs(
                    attack,
                    detector,
                    base_seed=int(spec["base_seed"]),
                    trials=int(spec["trials"]),
                    attacker_cluster=int(spec.get("attacker_cluster", 5)),
                    num_vehicles=spec.get("num_vehicles"),
                )
            )
    return configs


@dataclass(frozen=True)
class ArenaCell:
    """One scored ``attack × detector`` pairing."""

    attack: str
    detector: str
    trials: int
    detection_rate: float
    false_positive_rate: float
    impeded_rate: float
    median_time_to_isolation: float | None
    mean_overhead_packets: float
    mean_overhead_bytes: float

    def to_dict(self) -> dict:
        import dataclasses

        return dataclasses.asdict(self)


def aggregate_matrix(spec: dict, summaries: list) -> list[ArenaCell]:
    """Fold a completed campaign's summaries back into scored cells.

    ``summaries`` must be in unit order (``Campaign.results()``), i.e.
    the order :func:`expand_arena_spec` enumerates.
    """
    trials = int(spec["trials"])
    cells: list[ArenaCell] = []
    cursor = 0
    for attack in spec["attacks"]:
        for detector in spec["detectors"]:
            chunk = summaries[cursor : cursor + trials]
            cursor += trials
            isolations = [
                s.time_to_isolation
                for s in chunk
                if s.detected and s.time_to_isolation is not None
            ]
            cells.append(
                ArenaCell(
                    attack=attack,
                    detector=detector,
                    trials=len(chunk),
                    detection_rate=_rate(chunk, lambda s: s.detected),
                    false_positive_rate=_rate(chunk, lambda s: s.false_positive),
                    impeded_rate=_rate(chunk, lambda s: s.attack_impeded),
                    median_time_to_isolation=(
                        statistics.median(isolations) if isolations else None
                    ),
                    mean_overhead_packets=_mean(
                        [s.overhead_packets for s in chunk]
                    ),
                    mean_overhead_bytes=_mean([s.overhead_bytes for s in chunk]),
                )
            )
    return cells


def _rate(chunk, predicate) -> float:
    if not chunk:
        return 0.0
    return sum(1 for s in chunk if predicate(s)) / len(chunk)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def format_matrix(cells: list[ArenaCell]) -> str:
    """The matrix as a markdown grid: ``detection/FP`` per cell.

    Rows are attackers, columns detectors; a trailing legend explains
    the cell encoding and flags cells with honest false positives.
    """
    attacks = list(dict.fromkeys(cell.attack for cell in cells))
    detectors = list(dict.fromkeys(cell.detector for cell in cells))
    by_key = {(cell.attack, cell.detector): cell for cell in cells}
    width = max(len(d) for d in detectors) if detectors else 8
    width = max(width, 9)
    header = ["| attack      | " + " | ".join(d.ljust(width) for d in detectors) + " |"]
    header.append(
        "|-------------|" + "|".join("-" * (width + 2) for _ in detectors) + "|"
    )
    rows = []
    for attack in attacks:
        entries = []
        for detector in detectors:
            cell = by_key.get((attack, detector))
            if cell is None:
                entries.append("-".ljust(width))
                continue
            text = f"{cell.detection_rate:.2f}/{cell.false_positive_rate:.2f}"
            entries.append(text.ljust(width))
        rows.append(f"| {attack.ljust(11)} | " + " | ".join(entries) + " |")
    legend = (
        "\ncell = detection rate / honest false-positive rate over "
        f"{cells[0].trials if cells else 0} seeded trial(s) per cell"
    )
    return "\n".join(header + rows) + legend


def format_cells(cells: list[ArenaCell]) -> str:
    """Long-form per-cell lines with the delay and overhead columns."""
    lines = []
    for cell in cells:
        isolation = (
            f"{cell.median_time_to_isolation:.2f}s"
            if cell.median_time_to_isolation is not None
            else "-"
        )
        lines.append(
            f"{cell.attack:>12} x {cell.detector:<9} "
            f"det {cell.detection_rate:.2f}  fp {cell.false_positive_rate:.2f}  "
            f"impeded {cell.impeded_rate:.2f}  t-iso {isolation:>8}  "
            f"pkts {cell.mean_overhead_packets:9.1f}  "
            f"bytes {cell.mean_overhead_bytes:11.1f}"
        )
    return "\n".join(lines)


def arena_csv(cells: list[ArenaCell]) -> str:
    """The matrix as CSV (one row per cell, stable column order)."""
    columns = (
        "attack",
        "detector",
        "trials",
        "detection_rate",
        "false_positive_rate",
        "impeded_rate",
        "median_time_to_isolation",
        "mean_overhead_packets",
        "mean_overhead_bytes",
    )
    lines = [",".join(columns)]
    for cell in cells:
        payload = cell.to_dict()
        lines.append(
            ",".join(
                "" if payload[column] is None else str(payload[column])
                for column in columns
            )
        )
    return "\n".join(lines) + "\n"


def run_matrix(
    directory: str | Path,
    *,
    attacks: tuple[str, ...] = DEFAULT_ATTACKS,
    detectors: tuple[str, ...] = DEFAULT_DETECTORS,
    trials: int = 3,
    base_seed: int = 1,
    attacker_cluster: int = 5,
    num_vehicles: int | None = None,
    jobs: int = 1,
    stream=None,
) -> tuple[Campaign, list[ArenaCell]]:
    """Create-or-resume the matrix campaign in ``directory`` and run it.

    An existing ledger is resumed (its spec wins — the arguments only
    shape a *new* campaign); the cached unit summaries are aggregated
    into scored cells.
    """
    directory = Path(directory)
    if (directory / "manifest.json").exists():
        campaign = Campaign.open(directory)
    else:
        campaign = Campaign.create(
            directory,
            name="arena",
            spec=arena_spec(
                attacks=tuple(attacks),
                detectors=tuple(detectors),
                trials=trials,
                base_seed=base_seed,
                attacker_cluster=attacker_cluster,
                num_vehicles=num_vehicles,
            ),
        )
    campaign.run(jobs=jobs, stream=stream)
    cells = aggregate_matrix(campaign.manifest["spec"], campaign.results())
    return campaign, cells
