"""Scenario world builder: the whole stack, assembled.

A :class:`World` is one simulated highway with RSUs (running detection
services), a two-node TA fog hierarchy split across the clusters, and
explicit methods to add honest vehicles (with BlackDP verifiers) and
attackers at chosen positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks import (
    AdaptiveVehicle,
    AttackerPolicy,
    BlackHoleVehicle,
    FloodingVehicle,
    FloodPolicy,
    GrayHoleVehicle,
    SybilVehicle,
    WormholeVehicle,
    make_cooperative_pair,
    make_wormhole_pair,
)
from repro.clusters import build_rsu_chain
from repro.core import (
    BlackDpConfig,
    DetectionService,
    RouteVerifier,
    install_detection,
    install_verifier,
)
from repro.core.accounting import DetectionRecord
from repro.crypto import TrustedAuthorityNetwork
from repro.mobility import Highway, VehicleMotion, kmh_to_ms
from repro.net import ChannelConfig, Network
from repro.sim import Simulator
from repro.vehicles import VehicleNode


@dataclass
class World:
    """One fully assembled scenario."""

    sim: Simulator
    net: Network
    highway: Highway
    rsus: list
    services: list[DetectionService]
    ta_net: TrustedAuthorityNetwork
    tas: list
    vehicles: list[VehicleNode] = field(default_factory=list)
    verifiers: dict[str, RouteVerifier] = field(default_factory=dict)
    blackdp_config: BlackDpConfig | None = None
    transmission_range: float = 1000.0
    #: aggregate sketch monitors (``repro.sketch``), when installed
    monitors: list = field(default_factory=list)
    #: live arena detectors (``repro.arena``), when installed
    arena_detectors: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def ta_for_vehicle(self, x: float):
        """TA node responsible for the cluster containing ``x``."""
        cluster = self.highway.cluster_index_at(x)
        return self.ta_net.authority_for_cluster(f"rsu-{cluster}")

    def service_for_cluster(self, index: int) -> DetectionService:
        return self.services[index - 1]

    def all_records(self) -> list[DetectionRecord]:
        """Every completed detection record, across all cluster heads."""
        return [record for service in self.services for record in service.records]

    def close(self) -> None:
        """Break the world's reference cycles once it will not run again.

        Pending events, the medium's node tables and each node's
        handlers and protocol objects all point back into the world, so
        a finished world would otherwise wait for a full cycle-collector
        pass.  After ``close`` it is freed by reference counting as soon
        as the last reference goes.  Counters (``sim.events_executed``,
        ``net.stats``) and the detection records stay readable; nothing
        else may be used.
        """
        self.sim.close()
        self.net.close()
        for node in (*self.rsus, *self.vehicles):
            node.close()
        # Each TA node points back at the TA network.
        self.ta_net.authorities.clear()

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_vehicle(
        self,
        node_id: str,
        x: float,
        speed: float = 0.0,
        *,
        lane_y: float = 25.0,
        verifier: bool = True,
        config: BlackDpConfig | None = None,
    ) -> VehicleNode:
        """Add an enrolled honest vehicle and activate it."""
        ta = self.ta_for_vehicle(x)
        motion = VehicleMotion(
            entry_time=self.sim.now, entry_x=x, speed=speed, lane_y=lane_y
        )
        vehicle = VehicleNode(
            self.sim,
            self.highway,
            node_id,
            motion,
            enrolment=ta.enroll(node_id, now=self.sim.now),
            authority=ta,
            transmission_range=self.transmission_range,
        )
        self.net.attach(vehicle)
        vehicle.activate()
        if verifier:
            self.verifiers[node_id] = install_verifier(
                vehicle, self.ta_net.public_key, config or self.blackdp_config
            )
        self.vehicles.append(vehicle)
        return vehicle

    def add_attacker(
        self,
        node_id: str,
        x: float,
        speed: float = 0.0,
        *,
        lane_y: float = 75.0,
        policy: AttackerPolicy | None = None,
        enrolled: bool = True,
    ) -> BlackHoleVehicle:
        """Add a single black hole vehicle and activate it."""
        ta = self.ta_for_vehicle(x)
        motion = VehicleMotion(
            entry_time=self.sim.now, entry_x=x, speed=speed, lane_y=lane_y
        )
        attacker = BlackHoleVehicle(
            self.sim,
            self.highway,
            node_id,
            motion,
            policy=policy,
            enrolment=ta.enroll(node_id, now=self.sim.now) if enrolled else None,
            authority=ta if enrolled else None,
            transmission_range=self.transmission_range,
        )
        self.net.attach(attacker)
        attacker.activate()
        self.vehicles.append(attacker)
        return attacker

    def add_flooder(
        self,
        node_id: str,
        x: float,
        speed: float = 0.0,
        *,
        lane_y: float = 75.0,
        policy: FloodPolicy | None = None,
        enrolled: bool = True,
    ) -> FloodingVehicle:
        """Add an RREQ-flooding vehicle and activate it."""
        ta = self.ta_for_vehicle(x)
        motion = VehicleMotion(
            entry_time=self.sim.now, entry_x=x, speed=speed, lane_y=lane_y
        )
        flooder = FloodingVehicle(
            self.sim,
            self.highway,
            node_id,
            motion,
            policy=policy,
            enrolment=ta.enroll(node_id, now=self.sim.now) if enrolled else None,
            authority=ta if enrolled else None,
            transmission_range=self.transmission_range,
        )
        self.net.attach(flooder)
        flooder.activate()
        self.vehicles.append(flooder)
        return flooder

    def add_grayhole(
        self,
        node_id: str,
        x: float,
        speed: float = 0.0,
        *,
        lane_y: float = 75.0,
        policy: AttackerPolicy | None = None,
        drop_probability: float = 0.5,
        enrolled: bool = True,
    ) -> GrayHoleVehicle:
        """Add a selective-forwarding gray hole vehicle and activate it."""
        ta = self.ta_for_vehicle(x)
        motion = VehicleMotion(
            entry_time=self.sim.now, entry_x=x, speed=speed, lane_y=lane_y
        )
        attacker = GrayHoleVehicle(
            self.sim,
            self.highway,
            node_id,
            motion,
            policy=policy,
            drop_probability=drop_probability,
            enrolment=ta.enroll(node_id, now=self.sim.now) if enrolled else None,
            authority=ta if enrolled else None,
            transmission_range=self.transmission_range,
        )
        self.net.attach(attacker)
        attacker.activate()
        self.vehicles.append(attacker)
        return attacker

    def add_sybil(
        self,
        node_id: str,
        x: float,
        speed: float = 0.0,
        *,
        lane_y: float = 75.0,
        policy: AttackerPolicy | None = None,
        num_pseudonyms: int = 2,
        enrolled: bool = True,
    ) -> SybilVehicle:
        """Add a sybil pseudonym-abuse attacker and activate it."""
        ta = self.ta_for_vehicle(x)
        motion = VehicleMotion(
            entry_time=self.sim.now, entry_x=x, speed=speed, lane_y=lane_y
        )
        attacker = SybilVehicle(
            self.sim,
            self.highway,
            node_id,
            motion,
            policy=policy,
            num_pseudonyms=num_pseudonyms,
            enrolment=ta.enroll(node_id, now=self.sim.now) if enrolled else None,
            authority=ta if enrolled else None,
            transmission_range=self.transmission_range,
        )
        self.net.attach(attacker)
        attacker.activate()
        self.vehicles.append(attacker)
        return attacker

    def add_adaptive(
        self,
        node_id: str,
        x: float,
        speed: float = 0.0,
        *,
        lane_y: float = 75.0,
        policy: AttackerPolicy | None = None,
        enrolled: bool = True,
    ) -> AdaptiveVehicle:
        """Add a probe-aware adaptive black hole and activate it."""
        ta = self.ta_for_vehicle(x)
        motion = VehicleMotion(
            entry_time=self.sim.now, entry_x=x, speed=speed, lane_y=lane_y
        )
        attacker = AdaptiveVehicle(
            self.sim,
            self.highway,
            node_id,
            motion,
            policy=policy,
            enrolment=ta.enroll(node_id, now=self.sim.now) if enrolled else None,
            authority=ta if enrolled else None,
            transmission_range=self.transmission_range,
        )
        self.net.attach(attacker)
        attacker.activate()
        self.vehicles.append(attacker)
        return attacker

    def add_wormhole_pair(
        self,
        entry_x: float,
        exit_x: float,
        speed: float = 0.0,
        *,
        ids: tuple[str, str] = ("wormhole-entry", "wormhole-exit"),
        enrolled: bool = True,
    ) -> tuple[WormholeVehicle, WormholeVehicle]:
        """Add a linked wormhole (entry, exit) pair and activate both."""
        authority = self.ta_for_vehicle(entry_x)
        entry, exit_ = make_wormhole_pair(
            self.sim,
            self.highway,
            entry_id=ids[0],
            exit_id=ids[1],
            entry_x=entry_x,
            exit_x=exit_x,
            speed=speed,
            enroll=(
                (lambda node_id: authority.enroll(node_id, now=self.sim.now))
                if enrolled
                else None
            ),
            authority=authority if enrolled else None,
            transmission_range=self.transmission_range,
        )
        for endpoint in (entry, exit_):
            self.net.attach(endpoint)
            endpoint.activate()
            self.vehicles.append(endpoint)
        return entry, exit_

    def install_sketch_monitors(self, config=None) -> list:
        """Attach one aggregate monitor per detection service."""
        from repro.sketch import install_monitors

        self.monitors = install_monitors(self.services, config)
        return self.monitors

    def install_arena(self, config) -> list:
        """Attach live arena detectors (:mod:`repro.arena`) to every RSU."""
        from repro.arena import install_detectors

        self.arena_detectors = install_detectors(self, config)
        return self.arena_detectors

    def add_cooperative_pair(
        self,
        primary_x: float,
        teammate_x: float,
        speed: float = 0.0,
        *,
        policy: AttackerPolicy | None = None,
        ids: tuple[str, str] = ("attacker-b1", "attacker-b2"),
    ) -> tuple[BlackHoleVehicle, BlackHoleVehicle]:
        """Add a cooperative black hole pair and activate both."""
        authority = self.ta_for_vehicle(primary_x)
        primary, teammate = make_cooperative_pair(
            self.sim,
            self.highway,
            primary_id=ids[0],
            teammate_id=ids[1],
            primary_x=primary_x,
            teammate_x=teammate_x,
            speed=speed,
            policy=policy,
            enroll=lambda node_id: authority.enroll(node_id, now=self.sim.now),
            authority=authority,
            transmission_range=self.transmission_range,
        )
        for attacker in (primary, teammate):
            self.net.attach(attacker)
            attacker.activate()
            self.vehicles.append(attacker)
        return primary, teammate

    def populate(
        self,
        count: int,
        *,
        speed_min_kmh: float = 50.0,
        speed_max_kmh: float = 90.0,
        prefix: str = "veh",
    ) -> list[VehicleNode]:
        """Add ``count`` honest background vehicles with Table I draws:
        uniform positions over the highway, uniform speeds 50-90 km/h."""
        rng = self.sim.rng("placement")
        added = []
        for index in range(count):
            x = rng.uniform(0.0, self.highway.length)
            speed = kmh_to_ms(rng.uniform(speed_min_kmh, speed_max_kmh))
            lane = rng.randrange(self.highway.lanes)
            added.append(
                self.add_vehicle(
                    f"{prefix}-{index}",
                    x,
                    speed,
                    lane_y=self.highway.lane_y(lane),
                )
            )
        return added


def build_world(
    *,
    seed: int = 1,
    config: BlackDpConfig | None = None,
    highway: Highway | None = None,
    transmission_range: float = 1000.0,
    channel: ChannelConfig | None = None,
) -> World:
    """Assemble a world: highway, RSU chain with detection, TA fog pair.

    The TA hierarchy follows the paper's illustrative split: two TA
    nodes, each responsible for half of the cluster heads.
    """
    sim = Simulator(seed=seed)
    net = Network(sim, channel)
    hw = highway or Highway()
    rsus = build_rsu_chain(sim, net, hw, transmission_range=transmission_range)
    ta_net = TrustedAuthorityNetwork(sim.rng("crypto"))
    # The TA fog has no simulator reference; share the sim's observability
    # hub so enrolment/revocation counters land in the same registry.
    ta_net.obs = sim.obs
    half = len(rsus) // 2 or 1
    ta1 = ta_net.add_authority("ta1")
    ta2 = ta_net.add_authority("ta2")
    ta_net.assign_region("ta1", [rsu.node_id for rsu in rsus[:half]])
    ta_net.assign_region("ta2", [rsu.node_id for rsu in rsus[half:]])
    for rsu in rsus:
        authority = ta_net.authority_for_cluster(rsu.node_id)
        enrolment = authority.enroll_infrastructure(rsu.node_id, now=sim.now)
        rsu.aodv.identity = enrolment.identity
    services = [install_detection(rsu, ta_net, config) for rsu in rsus]
    return World(
        sim=sim,
        net=net,
        highway=hw,
        rsus=rsus,
        services=services,
        ta_net=ta_net,
        tas=[ta1, ta2],
        blackdp_config=config,
        transmission_range=transmission_range,
    )
