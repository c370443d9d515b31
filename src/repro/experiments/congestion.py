"""Ablation D — the §III-C bottleneck and the fog fix.

Floods one cluster head with simultaneous detection requests about
distinct suspects and measures how authentication-processing load delays
detection, with and without fog offloading.  Expected shape: mean
detection latency grows linearly with the report burst when the RSU is
on its own, and stays near-flat once overflow work is offloaded to the
fog node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import DetectionRequest
from repro.core.processing import RsuProcessor
from repro.experiments.world import build_world
from repro.metrics import summarize

#: Per-operation authentication cost modelled at the RSU (ECDSA-class).
AUTH_SERVICE_TIME = 0.01


@dataclass(frozen=True)
class CongestionRow:
    """One measured point of the congestion sweep."""

    fog: bool
    reports: int
    mean_latency: float
    p_max_latency: float
    mean_cpu_wait: float
    offloaded: int
    max_queue: int


def _run_burst(reports: int, *, fog: bool, seed: int = 71) -> CongestionRow:
    world = build_world(seed=seed)
    rsu = world.rsus[2]
    service = world.service_for_cluster(3)
    service.processor = RsuProcessor(
        world.sim,
        service_time=AUTH_SERVICE_TIME,
        fog_enabled=fog,
        fog_latency=0.02,
        offload_threshold=4,
    )
    reporters = [
        world.add_vehicle(f"rep-{index}", x=2050.0 + 15.0 * index)
        for index in range(reports)
    ]
    attackers = [
        world.add_attacker(f"bh-{index}", x=2550.0 + 12.0 * index)
        for index in range(reports)
    ]
    world.sim.run(until=0.5)
    start = world.sim.now
    for reporter, attacker in zip(reporters, attackers):
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
    world.sim.run(until=start + 120.0)
    records = service.records
    if len(records) != reports:
        raise RuntimeError(
            f"expected {reports} completed detections, got {len(records)}"
        )
    latencies = [record.finished_at - start for record in records]
    stats = service.processor.stats
    summary = summarize(latencies)
    return CongestionRow(
        fog=fog,
        reports=reports,
        mean_latency=summary.mean,
        p_max_latency=summary.maximum,
        mean_cpu_wait=stats.mean_wait,
        offloaded=stats.offloaded,
        max_queue=stats.max_queue,
    )


def _burst_point(reports: int, fog: bool, seed: int) -> CongestionRow:
    """Positional wrapper for the executor (module-level, picklable)."""
    return _run_burst(reports, fog=fog, seed=seed)


def run_congestion_sweep(
    bursts: tuple[int, ...] = (1, 5, 15, 30), seed: int = 71, *, parallel=None
) -> list[CongestionRow]:
    """Measure detection latency for report bursts, fog off then on.

    Every ``(fog, burst)`` cell is an independent seeded world, so
    ``parallel`` may run the grid in worker processes.
    """
    grid = [(reports, fog, seed) for fog in (False, True) for reports in bursts]
    if parallel is not None:
        return parallel.map(_burst_point, grid)
    return [_burst_point(*cell) for cell in grid]


def format_congestion(rows: list[CongestionRow]) -> str:
    lines = [
        "Ablation D — RSU authentication bottleneck vs fog offload (§III-C)",
        f"{'fog':<5} {'reports':>7} {'mean lat(s)':>11} {'max lat(s)':>10} "
        f"{'cpu wait(s)':>11} {'offloaded':>9} {'max queue':>9}",
    ]
    for row in rows:
        lines.append(
            f"{str(row.fog):<5} {row.reports:>7d} {row.mean_latency:>11.3f} "
            f"{row.p_max_latency:>10.3f} {row.mean_cpu_wait:>11.4f} "
            f"{row.offloaded:>9d} {row.max_queue:>9d}"
        )
    return "\n".join(lines)
