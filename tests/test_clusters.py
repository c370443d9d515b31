"""Tests for RSU cluster heads: join/leave, coverage, backbone wiring."""

from repro.clusters import MemberRecord, MembershipTable, build_rsu_chain
from repro.mobility import Highway, VehicleMotion
from repro.net import Network
from repro.sim import Simulator
from repro.vehicles import VehicleNode


def build_scenario(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    highway = Highway()
    rsus = build_rsu_chain(sim, net, highway)
    return sim, net, highway, rsus


def make_vehicle(sim, net, highway, node_id, x, speed=25.0, lane=0):
    motion = VehicleMotion(
        entry_time=sim.now, entry_x=x, speed=speed, lane_y=highway.lane_y(lane)
    )
    vehicle = VehicleNode(sim, highway, node_id, motion)
    net.attach(vehicle)
    return vehicle


def test_build_chain_deploys_one_rsu_per_cluster():
    sim, net, highway, rsus = build_scenario()
    assert len(rsus) == 10
    assert [r.cluster_index for r in rsus] == list(range(1, 11))
    assert rsus[0].position == (500.0, 100.0)
    # Sequential backbone: end-to-end distance is nine hops.
    assert net.backbone_path_length(rsus[0].address, rsus[9].address) == 9
    assert rsus[0].neighbor_addresses() == [rsus[1].address]
    assert set(rsus[4].neighbor_addresses()) == {rsus[3].address, rsus[5].address}


def test_rsu_coverage_is_its_cluster_only():
    sim, net, highway, rsus = build_scenario()
    rsu3 = rsus[2]
    assert rsu3.covers((2500.0, 50.0))
    assert rsu3.covers((2000.0, 50.0))
    assert not rsu3.covers((1999.0, 50.0))
    assert not rsu3.covers((-5.0, 50.0))


def test_vehicle_joins_its_cluster():
    sim, net, highway, rsus = build_scenario()
    vehicle = make_vehicle(sim, net, highway, "veh-1", x=2300.0)
    vehicle.join_cluster()
    sim.run()
    assert vehicle.current_cluster == 3
    assert vehicle.current_ch == rsus[2].address
    assert rsus[2].membership.is_member(vehicle.address)
    # No other CH admitted it.
    assert not rsus[1].membership.is_member(vehicle.address)
    assert not rsus[3].membership.is_member(vehicle.address)


def test_overlap_zone_join_broadcast_reaches_single_appropriate_ch():
    sim, net, highway, rsus = build_scenario()
    # x=2010 is within radio range of RSUs 2 and 3 (overlapped zone), but
    # positionally inside cluster 3.
    vehicle = make_vehicle(sim, net, highway, "veh-1", x=2010.0)
    assert highway.in_overlap_zone(2010.0, rsu_range=1000.0)
    vehicle.join_cluster()
    sim.run()
    assert vehicle.current_cluster == 3
    assert rsus[2].membership.is_member(vehicle.address)
    assert not rsus[1].membership.is_member(vehicle.address)


def test_boundary_crossing_rejoins_next_cluster():
    sim, net, highway, rsus = build_scenario()
    vehicle = make_vehicle(sim, net, highway, "veh-1", x=900.0, speed=25.0)
    vehicle.activate()
    sim.run(until=1.0)
    assert vehicle.current_cluster == 1
    sim.run(until=10.0)  # crosses x=1000 at t=4
    assert vehicle.current_cluster == 2
    assert rsus[1].membership.is_member(vehicle.address)
    assert not rsus[0].membership.is_member(vehicle.address)
    assert rsus[0].membership.was_member(vehicle.address)


def test_join_and_leave_observers_fire():
    sim, net, highway, rsus = build_scenario()
    joined = []
    rsus[0].on_member_join.append(joined.append)
    vehicle = make_vehicle(sim, net, highway, "veh-1", x=900.0, speed=25.0)
    vehicle.activate()
    sim.run(until=10.0)
    assert joined == [vehicle.address]
    assert not rsus[0].membership.is_member(vehicle.address)
    assert rsus[0].membership.was_member(vehicle.address)


def test_vehicle_exits_highway_at_the_end():
    sim, net, highway, rsus = build_scenario()
    vehicle = make_vehicle(sim, net, highway, "veh-1", x=9950.0, speed=25.0)
    vehicle.activate()
    sim.run(until=1.0)
    assert vehicle.current_cluster == 10
    sim.run(until=20.0)  # exits at t=2
    assert vehicle.exited
    assert vehicle.network is None
    assert not rsus[9].membership.is_member(vehicle.address)
    assert rsus[9].membership.was_member(vehicle.address)


def test_reverse_direction_crossing():
    sim, net, highway, rsus = build_scenario()
    vehicle = make_vehicle(sim, net, highway, "veh-1", x=1100.0, speed=-25.0)
    vehicle.activate()
    sim.run(until=0.5)
    assert vehicle.current_cluster == 2
    sim.run(until=10.0)
    assert vehicle.current_cluster == 1


def test_stationary_vehicle_never_crosses():
    sim, net, highway, rsus = build_scenario()
    vehicle = make_vehicle(sim, net, highway, "veh-1", x=500.0, speed=0.0)
    vehicle.activate()
    sim.run(until=100.0)
    assert vehicle.current_cluster == 1
    assert not vehicle.exited


def test_membership_table_prune_history():
    table = MembershipTable()
    table.join(MemberRecord(address="a", joined_at=0.0))
    table.leave("a", now=10.0)
    table.join(MemberRecord(address="b", joined_at=0.0))
    table.leave("b", now=95.0)
    assert table.prune_history(now=100.0, max_age=30.0) == 1
    assert not table.was_member("a")
    assert table.was_member("b")


def test_membership_rejoin_clears_history():
    table = MembershipTable()
    table.join(MemberRecord(address="a", joined_at=0.0))
    table.leave("a", now=5.0)
    table.join(MemberRecord(address="a", joined_at=6.0))
    assert table.is_member("a")
    assert not table.was_member("a")
    assert table.leave("ghost", now=7.0) is None
