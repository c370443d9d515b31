"""Tests for gratuitous RREPs and AODV local repair."""

from repro.routing import AodvConfig

from tests.helpers import build_chain, run_discovery


def test_gratuitous_rrep_teaches_destination_reverse_route():
    """When an intermediate answers a flood, the destination still learns
    how to reach the originator (AODV 'G' flag)."""
    sim, net, hosts = build_chain(5)
    # Prime n2 with a route to n4.
    run_discovery(sim, hosts[2], hosts[4].address)
    # n0 discovers n4; n2 answers from cache and gratuitously informs n4.
    result = run_discovery(sim, hosts[0], hosts[4].address)
    assert result.succeeded
    assert hosts[2].aodv.stats.gratuitous_rreps == 1
    reverse = hosts[4].aodv.table.lookup(hosts[0].address, sim.now)
    assert reverse is not None
    assert reverse.next_hop == hosts[3].address


def test_gratuitous_rrep_can_be_disabled():
    config = AodvConfig(gratuitous_rrep=False)
    sim, net, hosts = build_chain(5, aodv_config=config)
    run_discovery(sim, hosts[2], hosts[4].address)
    run_discovery(sim, hosts[0], hosts[4].address)
    assert hosts[2].aodv.stats.gratuitous_rreps == 0
    assert hosts[4].aodv.table.lookup(hosts[0].address, sim.now) is None


def test_hello_verification_through_intermediate_beyond_flood():
    """End-to-end BlackDP payoff of the 'G' flag: an intermediate-claimed
    route verifies even though the destination never saw the source's
    flood (the intermediate swallowed it)."""
    from tests.helpers_blackdp import build_world

    world = build_world()
    src = world.add_vehicle("src", x=100.0)
    world.add_vehicle("relay", x=900.0)
    mid = world.add_vehicle("mid", x=1700.0)
    dst = world.add_vehicle("dst", x=2500.0)
    world.sim.run(until=0.5)
    # Prime mid.
    primed = []
    world.verifiers["mid"].establish_route(dst.address, primed.append)
    world.sim.run(until=world.sim.now + 10.0)
    assert primed[0].verified
    outcomes = []
    world.verifiers["src"].establish_route(dst.address, outcomes.append)
    world.sim.run(until=world.sim.now + 30.0)
    assert outcomes[0].verified
    assert world.all_records() == []


def test_local_repair_recovers_transit_packets():
    config = AodvConfig(local_repair=True, route_lifetime=3.0)
    sim, net, hosts = build_chain(4, aodv_config=config)
    run_discovery(sim, hosts[0], hosts[3].address)
    # Let the intermediate's forward route expire, then stream data:
    # n1 must repair in place instead of dropping.
    sim.run(until=sim.now + 4.0)
    # Re-arm only the source's route (fresh discovery installs everywhere,
    # so instead expire everything and give the source a fresh route).
    result = run_discovery(sim, hosts[0], hosts[3].address)
    assert result.succeeded
    hosts[1].aodv.table.invalidate(hosts[3].address)  # break mid-route
    received = []
    hosts[3].aodv.add_data_sink(lambda p: received.append(p.payload))
    hosts[0].aodv.send_data(hosts[3].address, payload="x")
    sim.run()
    assert received == ["x"]
    assert hosts[1].aodv.stats.local_repairs_started == 1
    assert hosts[1].aodv.stats.local_repairs_succeeded == 1


def test_local_repair_disabled_drops_and_rerrs():
    config = AodvConfig(local_repair=False)
    sim, net, hosts = build_chain(4, aodv_config=config)
    run_discovery(sim, hosts[0], hosts[3].address)
    hosts[1].aodv.table.invalidate(hosts[3].address)
    hosts[0].aodv.send_data(hosts[3].address, payload="x")
    sim.run()
    assert hosts[3].aodv.stats.data_delivered == 0
    assert hosts[1].aodv.stats.data_dropped_no_route == 1


def test_local_repair_buffers_burst_under_one_discovery():
    config = AodvConfig(local_repair=True)
    sim, net, hosts = build_chain(4, aodv_config=config)
    run_discovery(sim, hosts[0], hosts[3].address)
    hosts[1].aodv.table.invalidate(hosts[3].address)
    received = []
    hosts[3].aodv.add_data_sink(lambda p: received.append(p.payload))
    for i in range(5):
        hosts[0].aodv.send_data(hosts[3].address, payload=i)
    sim.run()
    assert sorted(received) == [0, 1, 2, 3, 4]
    # One repair served the whole burst.
    assert hosts[1].aodv.stats.local_repairs_started == 1


def test_local_repair_gives_up_when_destination_gone():
    config = AodvConfig(local_repair=True, discovery_retries=0)
    sim, net, hosts = build_chain(4, aodv_config=config)
    run_discovery(sim, hosts[0], hosts[3].address)
    hosts[1].aodv.table.invalidate(hosts[3].address)
    net.detach(hosts[3].node)  # destination leaves entirely
    hosts[0].aodv.send_data(hosts[3].address, payload="x")
    sim.run()
    assert hosts[1].aodv.stats.local_repairs_started == 1
    assert hosts[1].aodv.stats.local_repairs_succeeded == 0
    assert hosts[1].aodv.stats.data_dropped_no_route == 1
