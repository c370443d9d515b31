"""Tests for vehicle identity, pseudonym renewal and AODV integration."""

from repro.clusters import build_rsu_chain
from repro.crypto import TrustedAuthorityNetwork
from repro.mobility import Highway, VehicleMotion
from repro.net import Network
from repro.sim import Simulator
from repro.vehicles import VehicleNode


def build_scenario(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    highway = Highway()
    rsus = build_rsu_chain(sim, net, highway)
    ta_net = TrustedAuthorityNetwork(sim.rng("crypto"))
    ta = ta_net.add_authority("ta1")
    return sim, net, highway, rsus, ta_net, ta


def make_vehicle(sim, net, highway, ta, node_id, x, speed=25.0):
    motion = VehicleMotion(entry_time=sim.now, entry_x=x, speed=speed, lane_y=25.0)
    enrolment = ta.enroll(node_id, now=sim.now)
    vehicle = VehicleNode(
        sim, highway, node_id, motion, enrolment=enrolment, authority=ta
    )
    net.attach(vehicle)
    return vehicle


def test_enrolled_vehicle_uses_pseudonym_address():
    sim, net, highway, rsus, ta_net, ta = build_scenario()
    vehicle = make_vehicle(sim, net, highway, ta, "veh-1", x=100.0)
    assert vehicle.address == vehicle.certificate.subject_id
    assert vehicle.address != "veh-1"


def test_unenrolled_vehicle_uses_node_id():
    sim = Simulator()
    net = Network(sim)
    highway = Highway()
    motion = VehicleMotion(entry_time=0.0, entry_x=0.0, speed=10.0)
    vehicle = VehicleNode(sim, highway, "veh-1", motion)
    net.attach(vehicle)
    assert vehicle.address == "veh-1"
    assert vehicle.identity() is None
    assert vehicle.certificate is None


def test_renew_identity_changes_address_and_rejoins():
    sim, net, highway, rsus, ta_net, ta = build_scenario()
    vehicle = make_vehicle(sim, net, highway, ta, "veh-1", x=2300.0)
    vehicle.activate()
    sim.run(until=1.0)
    old_address = vehicle.address
    assert rsus[2].membership.is_member(old_address)
    assert vehicle.renew_identity()
    sim.run(until=2.0)
    assert vehicle.address != old_address
    assert rsus[2].membership.is_member(vehicle.address)
    assert not rsus[2].membership.is_member(old_address)
    assert rsus[2].membership.was_member(old_address)
    assert net.node_at(vehicle.address) is vehicle
    assert net.node_at(old_address) is None


def test_renew_identity_fails_when_paused():
    sim, net, highway, rsus, ta_net, ta = build_scenario()
    vehicle = make_vehicle(sim, net, highway, ta, "veh-1", x=2300.0)
    vehicle.activate()
    sim.run(until=1.0)
    ta.pause_renewals("veh-1")
    old_address = vehicle.address
    assert not vehicle.renew_identity()
    assert vehicle.address == old_address


def test_renew_identity_without_authority_fails():
    sim = Simulator()
    net = Network(sim)
    highway = Highway()
    motion = VehicleMotion(entry_time=0.0, entry_x=0.0, speed=10.0)
    vehicle = VehicleNode(sim, highway, "veh-1", motion)
    net.attach(vehicle)
    assert not vehicle.renew_identity()


def test_vehicle_secure_rrep_end_to_end():
    """A destination vehicle's RREP carries its certificate and verifies."""
    from repro.crypto import verify

    sim, net, highway, rsus, ta_net, ta = build_scenario()
    source = make_vehicle(sim, net, highway, ta, "veh-src", x=100.0, speed=0.0)
    dest = make_vehicle(sim, net, highway, ta, "veh-dst", x=900.0, speed=0.0)
    results = []
    source.aodv.discover(dest.address, results.append)
    sim.run()
    reply = results[0].best_reply()
    assert reply is not None and reply.is_secure
    assert reply.certificate.subject_id == dest.address
    assert reply.certificate.verify_with(ta_net.public_key, now=sim.now)
    assert verify(reply.certificate.public_key, reply.signed_payload(), reply.signature)


def test_moving_vehicles_route_through_rsus_and_each_other():
    """100-vehicle Table I style smoke test: discovery works at scale."""
    sim, net, highway, rsus, ta_net, ta = build_scenario(seed=42)
    rng = sim.rng("placement")
    vehicles = []
    for i in range(40):
        x = rng.uniform(0.0, highway.length)
        speed = rng.uniform(50.0, 90.0) / 3.6
        vehicles.append(make_vehicle(sim, net, highway, ta, f"veh-{i}", x, speed))
    for vehicle in vehicles:
        vehicle.activate()
    sim.run(until=2.0)
    source = vehicles[0]
    target = max(
        vehicles[1:], key=lambda v: abs(v.position[0] - source.position[0])
    )
    results = []
    source.aodv.discover(target.address, results.append)
    sim.run(until=6.0)
    assert results and results[0].succeeded
