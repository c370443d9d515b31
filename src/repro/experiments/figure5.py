"""Figure 5: number of detection packets per scenario.

The paper enumerates the scenarios in prose; each is reconstructed here
deterministically:

- **no attacker** (an honest node is reported): 4 packets same-cluster,
  5 cross-cluster, 6 when the honest suspect has moved on — band 4-6;
- **single black hole**: 6 same-cluster fully responding, 7
  cross-cluster, 8 when it answers ``RREQ_1`` then flees to the next
  cluster, 9 for the cross-cluster variant of that — band 6-9;
- **cooperative**: each of the above plus the two teammate-probe packets
  — band 8-11.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks import AttackerPolicy
from repro.core import BlackDpConfig, DetectionRequest
from repro.experiments.executor import TrialExecutor
from repro.experiments.world import World, build_world
from repro.metrics import summarize

#: Config used for the flee scenarios: the probe gap gives the fleeing
#: attacker time to physically exit the examining RSU's footprint.
_FLEE_CONFIG = BlackDpConfig(inter_probe_delay=10.0, probe_timeout=1.0)
_FLEE_POLICY = AttackerPolicy(flee_after_replies=1, flee_speed=60.0)


@dataclass(frozen=True)
class Figure5Row:
    """One measured scenario."""

    attack: str
    scenario: str
    packets: int
    verdict: str
    expected: int

    @property
    def matches_paper(self) -> bool:
        return self.packets == self.expected


def _report(world: World, reporter, suspect_address, suspect_cluster, cert) -> None:
    reporter.send(
        DetectionRequest(
            src=reporter.address,
            dst=reporter.current_ch,
            reporter=reporter.address,
            reporter_cluster=reporter.current_cluster,
            suspect=suspect_address,
            suspect_cluster=suspect_cluster,
            suspect_certificate=cert,
        )
    )


def _single_record(world: World):
    records = world.all_records()
    if len(records) != 1:
        raise RuntimeError(
            f"scenario expected exactly one detection record, got "
            f"{[(r.verdict, r.packets) for r in records]}"
        )
    return records[0]


def _reporter_x(same_cluster: bool) -> float:
    """Reporter in cluster 3 (same) or cluster 2 (cross)."""
    return 2200.0 if same_cluster else 1500.0


def _run_no_attacker(same_cluster: bool, moved: bool) -> tuple[int, str]:
    world = build_world()
    reporter = world.add_vehicle("rep", x=_reporter_x(same_cluster))
    honest_x, honest_speed = (2990.0, 25.0) if moved else (2700.0, 0.0)
    honest = world.add_vehicle("innocent", x=honest_x, speed=honest_speed)
    world.sim.run(until=0.5)
    if moved:
        world.sim.run(until=2.0)  # crosses into cluster 4 at t ~ 0.4+
        assert honest.current_cluster == 4
    _report(world, reporter, honest.address, 3, honest.certificate)
    world.sim.run(until=world.sim.now + 30.0)
    record = _single_record(world)
    return record.packets, record.verdict


def _run_responsive(attack: str, same_cluster: bool) -> tuple[int, str]:
    world = build_world()
    reporter = world.add_vehicle("rep", x=_reporter_x(same_cluster))
    if attack == "single":
        suspect = world.add_attacker("b1", x=2700.0)
    else:
        suspect, _teammate = world.add_cooperative_pair(2600.0, 2900.0)
    world.sim.run(until=0.5)
    _report(world, reporter, suspect.address, 3, suspect.certificate)
    world.sim.run(until=world.sim.now + 30.0)
    record = _single_record(world)
    return record.packets, record.verdict


def _run_flee(attack: str, same_cluster: bool) -> tuple[int, str]:
    world = build_world(config=_FLEE_CONFIG)
    reporter = world.add_vehicle("rep", x=_reporter_x(same_cluster))
    if attack == "single":
        suspect = world.add_attacker("b1", x=2990.0, policy=_FLEE_POLICY)
    else:
        suspect, _teammate = world.add_cooperative_pair(
            2990.0, 2700.0, policy=_FLEE_POLICY,
        )
        _teammate.aodv.policy = AttackerPolicy.aggressive()
    world.sim.run(until=0.5)
    _report(world, reporter, suspect.address, 3, suspect.certificate)
    world.sim.run(until=world.sim.now + 60.0)
    record = _single_record(world)
    return record.packets, record.verdict


#: (attack, scenario label, runner, expected packets per the paper)
_SCENARIOS = [
    ("none", "same-cluster", lambda: _run_no_attacker(True, False), 4),
    ("none", "cross-cluster", lambda: _run_no_attacker(False, False), 5),
    ("none", "suspect-moved", lambda: _run_no_attacker(False, True), 6),
    ("single", "same-cluster", lambda: _run_responsive("single", True), 6),
    ("single", "cross-cluster", lambda: _run_responsive("single", False), 7),
    ("single", "respond-then-flee", lambda: _run_flee("single", True), 8),
    ("single", "cross+flee", lambda: _run_flee("single", False), 9),
    ("cooperative", "same-cluster", lambda: _run_responsive("cooperative", True), 8),
    ("cooperative", "cross-cluster", lambda: _run_responsive("cooperative", False), 9),
    ("cooperative", "respond-then-flee", lambda: _run_flee("cooperative", True), 10),
    ("cooperative", "cross+flee", lambda: _run_flee("cooperative", False), 11),
]


def run_figure5_scenario(index: int) -> tuple[int, str]:
    """Run one scenario from :data:`_SCENARIOS` by position.

    Module-level (not the lambdas in the table) so the trial executor
    can ship the work unit to a worker process by reference.
    """
    _attack, _label, runner, _expected = _SCENARIOS[index]
    return runner()


def run_figure5(*, parallel=None) -> list[Figure5Row]:
    """Measure every Figure 5 scenario; deterministic.

    Each scenario builds its own seeded world, so the eleven runs are
    independent; ``parallel`` (a
    :class:`~repro.experiments.executor.TrialExecutor`) fans them out
    with results re-assembled in table order.
    """
    measured = (parallel or TrialExecutor()).map(
        run_figure5_scenario, [(i,) for i in range(len(_SCENARIOS))]
    )
    rows = []
    for (attack, label, _runner, expected), (packets, verdict) in zip(
        _SCENARIOS, measured
    ):
        rows.append(
            Figure5Row(
                attack=attack,
                scenario=label,
                packets=packets,
                verdict=verdict,
                expected=expected,
            )
        )
    return rows


def bands(rows: list[Figure5Row]) -> dict[str, tuple[float, float]]:
    """Per-attack-type (min, max) packet bands — the form the paper
    reports: none 4-6, single 6-9, cooperative 8-11."""
    grouped: dict[str, list[int]] = {}
    for row in rows:
        grouped.setdefault(row.attack, []).append(row.packets)
    return {attack: summarize(values).band() for attack, values in grouped.items()}


def format_figure5(rows: list[Figure5Row]) -> str:
    lines = [
        "Figure 5 — number of detection packets",
        f"{'attack':<12} {'scenario':<20} {'packets':>7} {'paper':>6} "
        f"{'verdict':<12}",
    ]
    for row in rows:
        marker = "" if row.matches_paper else "  << MISMATCH"
        lines.append(
            f"{row.attack:<12} {row.scenario:<20} {row.packets:>7d} "
            f"{row.expected:>6d} {row.verdict:<12}{marker}"
        )
    for attack, (low, high) in bands(rows).items():
        lines.append(f"band {attack}: {low:.0f}-{high:.0f}")
    return "\n".join(lines)
