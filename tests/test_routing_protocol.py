"""Integration tests for AODV discovery, forwarding and maintenance."""

import random

import pytest

from repro.crypto import TrustedAuthorityNetwork, verify
from repro.net import ChannelConfig, Network, Node
from repro.routing import AodvConfig, AodvProtocol, RouteReply
from repro.sim import Simulator

from tests.helpers import build_chain, run_discovery


def test_discovery_finds_multi_hop_route():
    sim, net, hosts = build_chain(5)
    result = run_discovery(sim, hosts[0], hosts[4].address)
    assert result.succeeded
    assert result.route.next_hop == hosts[1].address
    assert result.route.hop_count == 4
    assert result.attempts == 1


def test_destination_reply_increments_sequence():
    sim, net, hosts = build_chain(3)
    before = hosts[2].aodv.own_seq
    result = run_discovery(sim, hosts[0], hosts[2].address)
    assert result.succeeded
    assert hosts[2].aodv.own_seq > before
    reply = result.best_reply()
    assert reply.replied_by == hosts[2].address
    assert reply.destination_seq == hosts[2].aodv.own_seq


def test_intermediate_node_with_fresh_route_replies():
    sim, net, hosts = build_chain(5)
    # Prime n2 with a route to n4 via an initial discovery from n2.
    run_discovery(sim, hosts[2], hosts[4].address)
    generated_before = hosts[2].aodv.stats.rrep_generated
    result = run_discovery(sim, hosts[0], hosts[4].address)
    assert result.succeeded
    assert hosts[2].aodv.stats.rrep_generated == generated_before + 1
    repliers = {r.replied_by for r in result.replies}
    assert hosts[2].address in repliers


def test_duplicate_rreq_suppressed():
    sim, net, hosts = build_chain(4)
    run_discovery(sim, hosts[0], hosts[3].address)
    # Each intermediate node rebroadcasts the flood exactly once.
    assert hosts[1].aodv.stats.rreq_rebroadcast == 1
    assert hosts[2].aodv.stats.rreq_rebroadcast == 1


def test_discovery_retries_then_fails_when_disconnected():
    sim, net, hosts = build_chain(2, spacing=5000.0)  # out of range
    result = run_discovery(sim, hosts[0], hosts[1].address)
    assert not result.succeeded
    assert result.replies == []
    assert result.attempts == 2  # initial + one retry (default config)


def test_discovery_to_self_rejected():
    sim, net, hosts = build_chain(2)
    with pytest.raises(ValueError):
        hosts[0].aodv.discover(hosts[0].address, lambda r: None)


def test_concurrent_discovery_same_destination_rejected():
    sim, net, hosts = build_chain(3)
    hosts[0].aodv.discover(hosts[2].address, lambda r: None)
    with pytest.raises(RuntimeError):
        hosts[0].aodv.discover(hosts[2].address, lambda r: None)
    sim.run()


def test_data_delivery_over_discovered_route():
    sim, net, hosts = build_chain(4)
    run_discovery(sim, hosts[0], hosts[3].address)
    received = []
    hosts[3].aodv.add_data_sink(lambda p: received.append(p.payload))
    assert hosts[0].aodv.send_data(hosts[3].address, payload="hi")
    sim.run()
    assert received == ["hi"]
    assert hosts[3].aodv.stats.data_delivered == 1
    assert hosts[1].aodv.stats.data_forwarded == 1
    assert hosts[2].aodv.stats.data_forwarded == 1


def test_data_without_route_is_dropped_and_counted():
    sim, net, hosts = build_chain(3)
    assert not hosts[0].aodv.send_data(hosts[2].address, payload="x")
    assert hosts[0].aodv.stats.data_dropped_no_route == 1


def test_reverse_routes_installed_by_flood():
    sim, net, hosts = build_chain(4)
    run_discovery(sim, hosts[0], hosts[3].address)
    # Every intermediate node learned a route back to the originator.
    for host in hosts[1:]:
        entry = host.aodv.table.lookup(hosts[0].address, sim.now)
        assert entry is not None


def test_rreq_ttl_limits_flood():
    config = AodvConfig(max_hops=2, discovery_retries=0)
    sim, net, hosts = build_chain(6, aodv_config=config)
    result = run_discovery(sim, hosts[0], hosts[5].address)
    assert not result.succeeded  # 5 hops needed, TTL allows 2


def test_route_expires_after_lifetime():
    config = AodvConfig(route_lifetime=5.0)
    sim, net, hosts = build_chain(3, aodv_config=config)
    run_discovery(sim, hosts[0], hosts[2].address)
    assert hosts[0].aodv.table.lookup(hosts[2].address, sim.now) is not None
    sim.run(until=sim.now + 10.0)
    assert hosts[0].aodv.table.lookup(hosts[2].address, sim.now) is None


def test_secure_rrep_signed_and_verifiable():
    ta_net = TrustedAuthorityNetwork(random.Random(0))
    ta = ta_net.add_authority("ta1")
    sim, net, hosts = build_chain(3)
    enrolment = ta.enroll("n2-longterm", now=0.0)
    hosts[2].aodv.identity = lambda: (
        enrolment.certificate,
        enrolment.keypair.private,
    )
    result = run_discovery(sim, hosts[0], hosts[2].address)
    reply = result.best_reply()
    assert reply.is_secure
    assert reply.certificate.verify_with(ta_net.public_key, now=sim.now)
    assert verify(
        reply.certificate.public_key, reply.signed_payload(), reply.signature
    )


def test_insecure_rrep_has_no_envelope():
    sim, net, hosts = build_chain(3)
    result = run_discovery(sim, hosts[0], hosts[2].address)
    assert not result.best_reply().is_secure


def test_hello_beacons_create_one_hop_routes():
    config = AodvConfig(enable_hello=True, hello_interval=1.0)
    sim, net, hosts = build_chain(3, aodv_config=config)
    sim.run(until=3.5)
    assert hosts[0].aodv.table.lookup(hosts[1].address, sim.now) is not None
    assert hosts[1].aodv.table.lookup(hosts[2].address, sim.now) is not None
    # Not neighbours: n0 cannot hear n2.
    assert hosts[0].aodv.table.lookup(hosts[2].address, sim.now) is None
    for host in hosts:
        host.aodv.stop_hello()


def test_neighbor_silence_invalidates_routes():
    config = AodvConfig(enable_hello=True, hello_interval=1.0, allowed_hello_loss=1)
    sim, net, hosts = build_chain(2, aodv_config=config)
    sim.run(until=3.0)
    assert hosts[0].aodv.table.lookup(hosts[1].address, sim.now) is not None
    net.detach(hosts[1].node)  # vehicle leaves; beacons stop
    hosts[1].aodv.stop_hello()
    sim.run(until=10.0)
    assert hosts[0].aodv.table.lookup(hosts[1].address, sim.now) is None
    hosts[0].aodv.stop_hello()


def test_hello_keeps_the_neighbour_route_alive():
    # RFC 3561 §6.9: every Hello extends the route to its sender, so a
    # route learned from the first Hello outlives its 3 s lifetime.
    config = AodvConfig(enable_hello=True, hello_interval=1.0)
    sim, net, hosts = build_chain(2, aodv_config=config)
    a, b = hosts
    entries = set()
    for until in (2.5, 5.5, 10.5):
        sim.run(until=until)
        route = a.aodv.table.lookup(b.address, sim.now)
        assert route is not None, f"a->b unusable at t={until}"
        entries.add(id(route))
    # Last heard just after t=10: three Hello intervals from then.
    assert 13.0 < route.expires_at < 13.1
    # Extended in place: one entry for the whole run, not one per Hello.
    assert len(entries) == 1
    for host in hosts:
        host.aodv.stop_hello()


def test_rrep_between_stale_reverse_routes_dies_at_max_hops():
    # Two nodes whose reverse routes to the originator point at each
    # other bounce its reply back and forth; the RREQ's hop bound must
    # stop it, instead of the two forwarding it forever.
    sim, net, hosts = build_chain(2)
    a, b = hosts
    for host, peer in ((a, b), (b, a)):
        host.aodv.table.consider(
            "ghost", next_hop=peer.address, hop_count=1, destination_seq=1,
            expires_at=100.0, now=sim.now,
        )
    reply = RouteReply(
        src="elsewhere", dst=a.address, originator="ghost",
        destination="far", destination_seq=9, hop_count=0, lifetime=50.0,
        replied_by="far",
    )
    a.node.on_receive(reply, "elsewhere")
    sim.run(max_events=10_000)
    forwarded = a.aodv.stats.rrep_forwarded + b.aodv.stats.rrep_forwarded
    assert forwarded == AodvConfig().max_hops
    assert sim.events_executed == forwarded


def test_rerr_propagates_and_invalidates_upstream():
    sim, net, hosts = build_chain(4)
    run_discovery(sim, hosts[0], hosts[3].address)
    # Break n2's link to n3, then force n2 to report it.
    hosts[2].aodv._link_broken(hosts[3].address)
    sim.run()
    assert hosts[2].aodv.table.lookup(hosts[3].address, sim.now) is None
    assert hosts[1].aodv.table.lookup(hosts[3].address, sim.now) is None
    assert hosts[0].aodv.table.lookup(hosts[3].address, sim.now) is None


def test_best_reply_prefers_highest_sequence():
    from repro.routing import RouteReply

    from repro.routing.protocol import DiscoveryResult

    replies = [
        RouteReply(src="a", dst="s", destination_seq=10, hop_count=1, replied_by="a"),
        RouteReply(src="b", dst="s", destination_seq=120, hop_count=4, replied_by="b"),
        RouteReply(src="c", dst="s", destination_seq=10, hop_count=3, replied_by="c"),
    ]
    result = DiscoveryResult(destination="d", route=None, replies=replies)
    assert result.best_reply().replied_by == "b"
    assert DiscoveryResult(destination="d", route=None).best_reply() is None


def test_lossy_channel_still_discovers_route():
    channel = ChannelConfig(loss_rate=0.2)
    config = AodvConfig(discovery_retries=4)
    sim, net, hosts = build_chain(3, seed=5, aodv_config=config, channel=channel)
    result = run_discovery(sim, hosts[0], hosts[2].address)
    assert result.succeeded
