"""Multiple simultaneous black holes (attack model: "there may be
multiple black hole attackers in the network").

Plants one aggressive attacker in each of several clusters, has sources
across the highway establish verified routes, and checks that every
attacker is convicted and isolated with zero false positives — the
detection machinery is per-cluster and parallel, so simultaneous
campaigns do not interfere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.experiments.world import build_world


@dataclass
class MultiAttackerResult:
    attackers: int
    convicted: int
    false_positives: int
    all_routes_verified: bool = False
    detections: list[str] = field(default_factory=list)
    packets: list[int] = field(default_factory=list)

    @property
    def all_detected(self) -> bool:
        return self.convicted == self.attackers


def run_multi_attacker_trial(
    *,
    attacker_clusters: tuple[int, ...] = (2, 5, 8),
    seed: int = 77,
    background: int = 30,
) -> MultiAttackerResult:
    """One trial with an attacker per listed cluster, sources adjacent."""
    world = build_world(seed=seed)
    world.populate(background)
    attackers = []
    sources = []
    destinations = []
    for index, cluster in enumerate(attacker_clusters):
        base_x = (cluster - 1) * 1000.0
        attackers.append(
            world.add_attacker(f"multi-bh-{index}", base_x + 600.0)
        )
        sources.append(
            world.add_vehicle(f"multi-src-{index}", base_x + 150.0)
        )
        # Destination far from its attacker (outside its radio reach).
        dest_cluster = cluster + 3 if cluster <= 5 else cluster - 3
        dest_x = (dest_cluster - 1) * 1000.0 + 400.0
        destinations.append(
            world.add_vehicle(f"multi-dst-{index}", dest_x)
        )
    world.sim.run(until=1.0)
    # Attackers all over the highway bid on every discovery, and the
    # highest forged sequence number wins each auction — so isolation
    # proceeds like peeling an onion: each verification round convicts
    # the currently-loudest liar, and sources retry until their routes
    # verify.  One round per attacker plus one suffices.
    pending = list(range(len(sources)))
    for _round in range(len(attackers) + 1):
        if not pending:
            break
        outcomes: dict[int, object] = {}
        for index in pending:
            world.verifiers[sources[index].node_id].establish_route(
                destinations[index].address,
                partial(outcomes.__setitem__, index),
            )
        deadline = world.sim.now + 90.0
        while len(outcomes) < len(pending) and world.sim.now < deadline:
            world.sim.run(until=world.sim.now + 1.0)
        pending = [
            index
            for index in pending
            if not (index in outcomes and outcomes[index].verified)
        ]

    attacker_addresses = {attacker.address for attacker in attackers}
    honest_addresses = {
        vehicle.address
        for vehicle in world.vehicles
        if vehicle.address not in attacker_addresses
    }
    convicted: set[str] = set()
    packets = []
    detections = []
    for record in world.all_records():
        if record.verdict == "black-hole":
            convicted.add(record.suspect)
            convicted.update(record.cooperative_with)
            packets.append(record.packets)
            detections.append(record.suspect)
    return MultiAttackerResult(
        attackers=len(attackers),
        convicted=len(convicted & attacker_addresses),
        false_positives=len(convicted & honest_addresses),
        all_routes_verified=not pending,
        detections=detections,
        packets=packets,
    )
