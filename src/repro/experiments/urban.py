"""Urban-topology detection experiment (paper future work).

Deploys BlackDP on a Manhattan grid: RSUs at every other intersection
(Voronoi coverage), vehicles doing random-turn grid mobility, and a
black hole parked mid-grid.  Shows the protocol working beyond the
highway: verification, reporting, probing and isolation are topology
agnostic; only the flee-chase continuation is highway-specific (an
urban chase direction is undefined, so a fleeing urban suspect ends as
``fled`` — documented, matching the paper's open problem).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.blackhole import BlackHoleAodv
from repro.attacks.policy import AttackerPolicy
from repro.clusters.coverage import GridCoverage
from repro.clusters.rsu import RsuNode
from repro.core import BlackDpConfig, install_detection, install_verifier
from repro.core.accounting import DetectionRecord
from repro.crypto import TrustedAuthorityNetwork
from repro.mobility.urban import ManhattanMotion, UrbanGrid
from repro.net import Network
from repro.sim import Simulator
from repro.vehicles.urban import UrbanVehicleNode


class UrbanBlackHoleVehicle(UrbanVehicleNode):
    """An urban vehicle whose AODV engine is a black hole."""

    def __init__(self, *args, policy: AttackerPolicy | None = None, **kwargs):
        self._policy = policy or AttackerPolicy()
        super().__init__(*args, **kwargs)

    def _make_aodv(self, config):
        return BlackHoleAodv(
            self, config, policy=self._policy, identity=self.identity
        )


@dataclass
class UrbanWorld:
    """An assembled urban scenario."""

    sim: Simulator
    net: Network
    grid: UrbanGrid
    coverage: GridCoverage
    rsus: list[RsuNode]
    services: list
    ta_net: TrustedAuthorityNetwork
    vehicles: list = field(default_factory=list)
    verifiers: dict = field(default_factory=dict)

    def all_records(self) -> list[DetectionRecord]:
        return [record for service in self.services for record in service.records]

    def service_for_cluster(self, index: int):
        return self.services[index - 1]


def build_urban_world(
    *,
    seed: int = 1,
    grid: UrbanGrid | None = None,
    config: BlackDpConfig | None = None,
    transmission_range: float = 1000.0,
    rsu_spacing: int = 2,
) -> UrbanWorld:
    """RSUs every ``rsu_spacing`` intersections, wired into a backbone mesh."""
    if rsu_spacing < 1:
        raise ValueError("rsu_spacing must be at least 1")
    sim = Simulator(seed=seed)
    net = Network(sim)
    grid = grid or UrbanGrid(blocks_x=4, blocks_y=4, block_length=400.0)
    rsu_points = [
        (ix, iy)
        for iy in range(0, grid.blocks_y + 1, rsu_spacing)
        for ix in range(0, grid.blocks_x + 1, rsu_spacing)
    ]
    coverage = GridCoverage(grid, rsu_points, radio_range=transmission_range)
    rsus = []
    for index in range(1, coverage.num_clusters + 1):
        rsu = RsuNode(
            sim,
            None,
            index,
            transmission_range=transmission_range,
            coverage=coverage,
        )
        net.attach(rsu)
        rsus.append(rsu)
    # Backbone: mesh between RSUs at adjacent sampled intersections.
    spacing = rsu_spacing * grid.block_length
    for i, a in enumerate(rsus):
        for b in rsus[i + 1 :]:
            if a.distance_to(b) <= spacing + 1.0:
                net.connect_backbone(a, b)
                a.neighbor_rsus.append(b)
                b.neighbor_rsus.append(a)
    ta_net = TrustedAuthorityNetwork(sim.rng("crypto"))
    ta = ta_net.add_authority("ta1")
    ta_net.assign_region("ta1", [rsu.node_id for rsu in rsus])
    for rsu in rsus:
        enrolment = ta.enroll_infrastructure(rsu.node_id, now=sim.now)
        rsu.aodv.identity = enrolment.identity
    services = [install_detection(rsu, ta_net, config) for rsu in rsus]
    return UrbanWorld(
        sim=sim,
        net=net,
        grid=grid,
        coverage=coverage,
        rsus=rsus,
        services=services,
        ta_net=ta_net,
    )


def add_urban_vehicle(
    world: UrbanWorld,
    node_id: str,
    start: tuple[int, int],
    speed: float = 14.0,
    *,
    verifier: bool = True,
    attacker: bool = False,
    policy: AttackerPolicy | None = None,
):
    """Add a vehicle (or attacker) walking the grid from ``start``."""
    ta = world.ta_net.authorities["ta1"]
    motion = ManhattanMotion(
        world.grid,
        world.sim.rng(f"urban-{node_id}"),
        entry_time=world.sim.now,
        start=start,
        speed=speed,
    )
    cls = UrbanBlackHoleVehicle if attacker else UrbanVehicleNode
    kwargs = {"policy": policy} if attacker else {}
    vehicle = cls(
        world.sim,
        world.grid,
        node_id,
        motion,
        enrolment=ta.enroll(node_id, now=world.sim.now),
        authority=ta,
        **kwargs,
    )
    world.net.attach(vehicle)
    vehicle.activate()
    if verifier and not attacker:
        world.verifiers[node_id] = install_verifier(
            vehicle, world.ta_net.public_key, config=None
        )
    world.vehicles.append(vehicle)
    return vehicle


@dataclass(frozen=True)
class UrbanTrialResult:
    detected: bool
    false_positive: bool
    verdicts: list[str]
    packets: int | None
    outcome_reason: str


@dataclass(frozen=True)
class UrbanDensityRow:
    """One point of the RSU-density sweep."""

    rsu_spacing: int
    rsus: int
    coverage_fraction: float
    attacker_covered: bool
    detected: bool
    false_positive: bool


def _density_point(spacing: int, seed: int) -> UrbanDensityRow:
    """One RSU-density point (module-level so the executor can ship it)."""
    world = build_urban_world(seed=seed, rsu_spacing=spacing)
    grid = world.grid
    # Coverage fraction sampled over a street lattice.
    samples = [
        (x * grid.block_length / 4.0, y * grid.block_length / 4.0)
        for x in range(4 * grid.blocks_x + 1)
        for y in range(4 * grid.blocks_y + 1)
        if grid.is_on_street(
            (x * grid.block_length / 4.0, y * grid.block_length / 4.0),
            tolerance=1.0,
        )
    ]
    covered = sum(
        1 for point in samples if world.coverage.cluster_at(point) is not None
    )
    result = _run_trial_in(world)
    return UrbanDensityRow(
        rsu_spacing=spacing,
        rsus=len(world.rsus),
        coverage_fraction=covered / len(samples),
        attacker_covered=result[0],
        detected=result[1].detected,
        false_positive=result[1].false_positive,
    )


def run_urban_density_sweep(
    spacings: tuple[int, ...] = (1, 2, 4), seed: int = 3, *, parallel=None
) -> list[UrbanDensityRow]:
    """Detection success versus RSU deployment density.

    The interesting failure mode appears at sparse deployments: when the
    attacker's position falls outside every RSU's footprint it belongs
    to no cluster, nobody can receive the ``d_req`` probe it, and the
    attack is only *prevented*, not detected — quantifying how much the
    protocol leans on the paper's "least number of CHs required to cover
    the entire highway" deployment rule.  Density points are independent
    seeded worlds; ``parallel`` fans them out in ``spacings`` order.
    """
    points = [(spacing, seed) for spacing in spacings]
    if parallel is not None:
        return parallel.map(_density_point, points)
    return [_density_point(*point) for point in points]


def _run_trial_in(
    world: UrbanWorld, background: int = 10
) -> tuple[bool, UrbanTrialResult]:
    """Run the standard urban trial inside a pre-built world.

    Returns whether any RSU covers the attacker's position, and the
    trial's result.
    """
    grid = world.grid
    rng = world.sim.rng("urban-placement")
    for index in range(background):
        start = (rng.randrange(grid.blocks_x + 1), rng.randrange(grid.blocks_y + 1))
        add_urban_vehicle(world, f"uveh-{index}", start)
    add_urban_vehicle(world, "source", (0, 0), speed=0.001)
    attacker = add_urban_vehicle(
        world, "attacker", (2, 2), speed=0.001, attacker=True, verifier=False
    )
    destination = add_urban_vehicle(
        world, "destination", (grid.blocks_x, grid.blocks_y), speed=0.001
    )
    attacker_covered = (
        world.coverage.cluster_at(attacker.position) is not None
    )
    world.sim.run(until=1.0)
    outcomes = []
    world.verifiers["source"].establish_route(destination.address, outcomes.append)
    world.sim.run(until=world.sim.now + 60.0)
    records = world.all_records()
    convicted = {
        suspect
        for record in records
        if record.verdict == "black-hole"
        for suspect in [record.suspect, *record.cooperative_with]
    }
    result = UrbanTrialResult(
        detected=attacker.address in convicted,
        false_positive=bool(convicted - {attacker.address}),
        verdicts=[record.verdict for record in records],
        packets=records[0].packets if records else None,
        outcome_reason=outcomes[0].reason if outcomes else "no-outcome",
    )
    return attacker_covered, result


def run_urban_trial(*, seed: int = 3, background: int = 10) -> UrbanTrialResult:
    """One urban detection trial: source vs a parked mid-grid black hole."""
    return _run_trial_in(build_urban_world(seed=seed), background)[1]
