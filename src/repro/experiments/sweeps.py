"""Ablations and baseline comparisons (DESIGN.md experiments A-C).

- **Ablation A** (:func:`run_baseline_comparison`) — BlackDP versus the
  sequence-number and trust baselines on the four structural scenarios
  the paper's related-work section argues about.
- **Ablation B** (:func:`run_probe_ablation`) — what the fake-destination
  double probe buys: a naive single probe for the *real* destination
  convicts honest nodes that legitimately cache routes.
- **Ablation C** (:func:`run_overhead_sweep`) — detection latency and
  network load versus vehicle density (the paper's §III-C limitation
  discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks import AttackerPolicy
from repro.baselines import (
    PeakThresholdDetector,
    SequenceComparisonDetector,
    StaticThresholdDetector,
)
from repro.core import DetectionRequest
from repro.experiments.executor import TrialExecutor
from repro.experiments.world import build_world
from repro.routing.packets import RouteRequest


# ----------------------------------------------------------------------
# Ablation A: baseline comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComparisonRow:
    """Did each method catch the attack in one scenario?"""

    scenario: str
    detected_by: dict[str, bool] = field(hash=False, default_factory=dict)


def _collect_replies(world, source, destination_address):
    """Run one discovery and return the source's replies in arrival order."""
    results = []
    source.aodv.discover(destination_address, results.append)
    world.sim.run(until=world.sim.now + 5.0)
    return results[0].replies if results else []


def _blackdp_detects(world, source, suspect) -> bool:
    """Report the suspect and see whether BlackDP convicts it."""
    source.send(
        DetectionRequest(
            src=source.address,
            dst=source.current_ch,
            reporter=source.address,
            reporter_cluster=source.current_cluster,
            suspect=suspect.address,
            suspect_cluster=suspect.current_cluster or 0,
            suspect_certificate=suspect.certificate,
        )
    )
    world.sim.run(until=world.sim.now + 30.0)
    return any(
        r.verdict == "black-hole" and r.suspect == suspect.address
        for r in world.all_records()
    )


def _sn_baselines(replies) -> dict[str, bool]:
    return {
        "jaiswal-compare": SequenceComparisonDetector().evaluate(list(replies)).detected_attack,
        "jhaveri-peak": PeakThresholdDetector().evaluate(list(replies)).detected_attack,
        "tan-static": StaticThresholdDetector("medium").evaluate(list(replies)).detected_attack,
    }


def _compare_multi_replier() -> ComparisonRow:
    """Multi-replier single attack: everyone's easy case.  The honest
    replier is two hops out, so the attacker's instant fake RREP arrives
    first — the ordering Jaiswal's comparison assumes."""
    world = build_world(seed=11)
    source = world.add_vehicle("src", x=100.0)
    world.add_vehicle("relay", x=900.0)
    honest_mid = world.add_vehicle("mid", x=1700.0)
    dest = world.add_vehicle("dst", x=2400.0)
    world.sim.run(until=0.5)
    _collect_replies(world, honest_mid, dest.address)  # prime mid's route
    # The attacker arrives after the priming discovery, so mid's cached
    # route is genuine rather than poisoned.
    attacker = world.add_attacker("bh", x=1000.0)
    world.sim.run(until=world.sim.now + 0.5)
    replies = _collect_replies(world, source, dest.address)
    detected = _sn_baselines(replies)
    detected["blackdp"] = _blackdp_detects(world, source, attacker)
    return ComparisonRow("multi-replier", detected)


def _compare_single_replier() -> ComparisonRow:
    """Single-replier: the attacker is the only node that answers (the
    destination has left the highway) — the comparison method has
    nothing to compare against."""
    world = build_world(seed=12)
    source = world.add_vehicle("src", x=100.0)
    attacker = world.add_attacker(
        "bh", x=1000.0, policy=AttackerPolicy(fake_seq_boost=150)
    )
    world.sim.run(until=0.5)
    replies = _collect_replies(world, source, "pid-departed-destination")
    detected = _sn_baselines(replies)
    detected["blackdp"] = _blackdp_detects(world, source, attacker)
    return ComparisonRow("single-replier", detected)


def _compare_modest_seq() -> ComparisonRow:
    """Modest attacker: the network has aged (legitimate sequence numbers
    around 30) and the attacker bids just above them — under every
    threshold, under the outlier ratio."""
    world = build_world(seed=13)
    source = world.add_vehicle("src", x=100.0)
    attacker = world.add_attacker(
        "bh", x=1000.0, policy=AttackerPolicy(fake_seq_boost=40)
    )
    destination = world.add_vehicle("dst", x=1700.0)
    destination.aodv.own_seq = 30  # aged network state
    world.sim.run(until=0.5)
    replies = _collect_replies(world, source, destination.address)
    detected = _sn_baselines(replies)
    detected["blackdp"] = _blackdp_detects(world, source, attacker)
    return ComparisonRow("modest-seq", detected)


def _compare_cooperative_teammate() -> ComparisonRow:
    """Cooperative: catching the *teammate* needs behavioural probing."""
    world = build_world(seed=14)
    source = world.add_vehicle("src", x=100.0)
    primary, teammate = world.add_cooperative_pair(900.0, 1400.0)
    world.add_vehicle("dst", x=4000.0)
    destination = world.vehicles[-1]
    world.sim.run(until=0.5)
    replies = _collect_replies(world, source, destination.address)
    detected = {
        f"{name}(teammate)": False for name in _sn_baselines(replies)
    }  # SN methods never see the teammate: it sends no RREP to the source
    detected["blackdp(teammate)"] = False
    if _blackdp_detects(world, source, primary):
        detected["blackdp(teammate)"] = any(
            teammate.address in r.cooperative_with for r in world.all_records()
        )
    return ComparisonRow("cooperative-teammate", detected)


#: The four structural scenarios, in report order.  Module-level
#: functions so the executor can ship them to worker processes.
_COMPARISON_SCENARIOS = (
    _compare_multi_replier,
    _compare_single_replier,
    _compare_modest_seq,
    _compare_cooperative_teammate,
)


def run_baseline_comparison(*, parallel=None) -> list[ComparisonRow]:
    """Four scenarios; returns who detected what.  Each scenario owns a
    seeded world, so ``parallel`` may run them in worker processes."""
    return (parallel or TrialExecutor()).map_calls(
        [(fn, ()) for fn in _COMPARISON_SCENARIOS]
    )


def format_comparison(rows: list[ComparisonRow]) -> str:
    lines = ["Ablation A — baseline comparison (True = attack detected)"]
    for row in rows:
        lines.append(f"  {row.scenario}:")
        for method, ok in sorted(row.detected_by.items()):
            lines.append(f"    {method:<22} {ok}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ablation B: probe design
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbeAblationResult:
    """False/true positives of each probe design over the same suspects."""

    honest_suspects: int
    attacker_suspects: int
    naive_false_positives: int
    naive_true_positives: int
    blackdp_false_positives: int
    blackdp_true_positives: int


def run_probe_ablation(honest: int = 5, attackers: int = 3) -> ProbeAblationResult:
    """Probe honest route-caching nodes and attackers with both designs.

    The naive design (single probe for the *real* destination) convicts
    every honest node that happens to cache a genuine route; BlackDP's
    fake-destination double probe convicts none of them.
    """
    world = build_world(seed=21)
    rsu = world.rsus[2]  # cluster 3's CH runs the probes
    destination = world.add_vehicle("dst", x=3300.0)
    reporter = world.add_vehicle("rep", x=2100.0)
    honest_nodes = [
        world.add_vehicle(f"honest-{i}", x=2400.0 + 60 * i) for i in range(honest)
    ]
    attacker_nodes = [
        world.add_attacker(f"bh-{i}", x=2400.0 + 60 * (honest + i))
        for i in range(attackers)
    ]
    world.sim.run(until=0.5)
    # Honest nodes legitimately cache a route to the destination.
    for node in honest_nodes:
        results = []
        node.aodv.discover(destination.address, results.append)
        world.sim.run(until=world.sim.now + 3.0)

    # --- Naive design: unicast probe for the REAL destination, convict
    #     on any reply.  Replies to naive aliases are intercepted in
    #     front of the RSU's existing RouteReply handling.
    from repro.routing.packets import RouteReply

    naive_replies: dict[str, list] = {}
    previous_handler = rsu.handler_for(RouteReply)

    def chained(packet, sender):
        if packet.originator in naive_replies:
            naive_replies[packet.originator].append(packet)
            return
        previous_handler(packet, sender)

    rsu.register_handler(RouteReply, chained)
    naive_fp = naive_tp = 0
    for index, node in enumerate(honest_nodes + attacker_nodes):
        alias = f"pid-naive-{index}"
        naive_replies[alias] = []
        world.net.add_alias(alias, rsu)
        rsu.send(
            RouteRequest(
                src=alias, dst=node.address, originator=alias,
                originator_seq=1, destination=destination.address,
                destination_seq=0, rreq_id=900 + index,
            )
        )
        world.sim.run(until=world.sim.now + 2.0)
        world.net.remove_alias(alias, rsu)
        convicted = bool(naive_replies[alias])
        if convicted and node in honest_nodes:
            naive_fp += 1
        if convicted and node in attacker_nodes:
            naive_tp += 1
    rsu.register_handler(RouteReply, previous_handler)

    # --- BlackDP design: full examiner pipeline per suspect.
    blackdp_fp = blackdp_tp = 0
    for node in honest_nodes + attacker_nodes:
        reporter.send(
            DetectionRequest(
                src=reporter.address,
                dst=reporter.current_ch,
                reporter=reporter.address,
                reporter_cluster=reporter.current_cluster,
                suspect=node.address,
                suspect_cluster=node.current_cluster or 3,
                suspect_certificate=node.certificate,
            )
        )
        world.sim.run(until=world.sim.now + 20.0)
    convicted = {
        r.suspect
        for r in world.all_records()
        if r.verdict == "black-hole"
    }
    for node in honest_nodes:
        if node.address in convicted:
            blackdp_fp += 1
    for node in attacker_nodes:
        if node.address in convicted:
            blackdp_tp += 1
    return ProbeAblationResult(
        honest_suspects=honest,
        attacker_suspects=attackers,
        naive_false_positives=naive_fp,
        naive_true_positives=naive_tp,
        blackdp_false_positives=blackdp_fp,
        blackdp_true_positives=blackdp_tp,
    )


def format_probe_ablation(result: ProbeAblationResult) -> str:
    return "\n".join(
        [
            "Ablation B — probe design (fake-destination double probe vs "
            "naive real-destination single probe)",
            f"  suspects: {result.honest_suspects} honest + "
            f"{result.attacker_suspects} attackers",
            f"  naive   : TP {result.naive_true_positives}  "
            f"FP {result.naive_false_positives}",
            f"  blackdp : TP {result.blackdp_true_positives}  "
            f"FP {result.blackdp_false_positives}",
        ]
    )


# ----------------------------------------------------------------------
# Ablation C: overhead vs density
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OverheadRow:
    vehicles: int
    detection_latency: float
    detection_packets: int
    blackdp_bytes: int
    ambient_bytes: int


#: packet kinds that exist only because of BlackDP (probe RREQ/RREPs are
#: indistinguishable from routing traffic and counted via the Figure 5
#: packet ledger instead)
_BLACKDP_KINDS = (
    "DetectionRequest",
    "DetectionForward",
    "DetectionResult",
    "RevocationNoticePacket",
    "MemberWarning",
    "SecureHello",
    "HelloReply",
)


def _overhead_point(count: int, seed: int) -> OverheadRow:
    """One density point: a seeded world, one detection, byte deltas."""
    from repro.net import ChannelConfig

    world = build_world(seed=seed, channel=ChannelConfig(account_bytes=True))
    world.populate(count)
    reporter = world.add_vehicle("rep", x=2200.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    before_kind = dict(world.net.stats.bytes_by_kind)
    before_total = world.net.stats.bytes_sent
    start = world.sim.now
    reporter.send(
        DetectionRequest(
            src=reporter.address,
            dst=reporter.current_ch,
            reporter=reporter.address,
            reporter_cluster=reporter.current_cluster,
            suspect=attacker.address,
            suspect_cluster=3,
            suspect_certificate=attacker.certificate,
        )
    )
    world.sim.run(until=start + 30.0)
    records = world.service_for_cluster(3).records
    if not records:
        raise RuntimeError(f"no detection completed at density {count}")
    record = records[0]
    blackdp_bytes = sum(
        world.net.stats.bytes_by_kind[kind] - before_kind.get(kind, 0)
        for kind in _BLACKDP_KINDS
    )
    total_bytes = world.net.stats.bytes_sent - before_total
    return OverheadRow(
        vehicles=count,
        detection_latency=record.finished_at - start,
        detection_packets=record.packets,
        blackdp_bytes=blackdp_bytes,
        ambient_bytes=total_bytes - blackdp_bytes,
    )


def run_overhead_sweep(
    densities: tuple[int, ...] = (25, 50, 100, 200),
    seed: int = 31,
    *,
    parallel=None,
) -> list[OverheadRow]:
    """Single-attacker detection cost as vehicle density grows.

    Byte figures are wire-accurate (binary codec sizes): ``blackdp_bytes``
    counts only BlackDP-specific packet kinds; ``ambient_bytes`` is all
    other traffic (joins, floods, beacons) in the same window.  Density
    points are independent seeded worlds, so ``parallel`` fans them out.
    """
    return (parallel or TrialExecutor()).map(
        _overhead_point, [(count, seed) for count in densities]
    )


def format_overhead(rows: list[OverheadRow]) -> str:
    lines = [
        "Ablation C — overhead vs vehicle density",
        f"{'vehicles':>8} {'latency(s)':>11} {'det.packets':>12} "
        f"{'blackdp bytes':>13} {'ambient bytes':>13}",
    ]
    for row in rows:
        lines.append(
            f"{row.vehicles:>8d} {row.detection_latency:>11.3f} "
            f"{row.detection_packets:>12d} {row.blackdp_bytes:>13d} "
            f"{row.ambient_bytes:>13d}"
        )
    return "\n".join(lines)
