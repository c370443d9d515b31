"""Regression tests for the radio medium's address-lifecycle bugs.

Three bugs found while profiling the broadcast hot path (see the spatial
index PR): detach leaking aliases and monitor registrations, pseudonym
collisions corrupting identity mid-readdress, and subclass handler
dispatch resolving by registration order instead of specificity.
"""

import pytest

from repro.net import BROADCAST, Network, Node, Packet
from repro.sim import Simulator


def make_net(seed=1):
    sim = Simulator(seed=seed)
    return sim, Network(sim)


def add_node(sim, net, node_id, x, range_=1000.0):
    node = Node(sim, node_id, position=(x, 0.0), transmission_range=range_)
    net.attach(node)
    return node


# ----------------------------------------------------------------------
# Bug 1: detach must strip aliases and monitor registrations
# ----------------------------------------------------------------------
def test_detach_strips_disposable_identity_aliases():
    sim, net = make_net()
    rsu = add_node(sim, net, "rsu", 0)
    net.add_alias("disposable-1", rsu)
    net.add_alias("disposable-2", rsu)
    net.detach(rsu)
    assert net.node_at("rsu") is None
    assert net.node_at("disposable-1") is None
    assert net.node_at("disposable-2") is None


def test_detach_frees_alias_addresses_for_reuse():
    sim, net = make_net()
    rsu = add_node(sim, net, "rsu", 0)
    net.add_alias("pid-77", rsu)
    net.detach(rsu)
    # A fresh vehicle may now legitimately hold the departed alias.
    newcomer = Node(sim, "pid-77", position=(10.0, 0.0))
    net.attach(newcomer)  # must not raise
    assert net.node_at("pid-77") is newcomer


def test_detach_stops_promiscuous_overhearing():
    sim, net = make_net()
    watcher = add_node(sim, net, "watcher", 100)
    sender = add_node(sim, net, "sender", 0)
    receiver = add_node(sim, net, "receiver", 50)
    overheard = []
    net.add_monitor(watcher, lambda p, s, d: overheard.append(p))
    net.detach(watcher)  # drives off the highway
    sender.send(Packet(src="sender", dst="receiver"))
    sim.run()
    assert receiver.packets_received == 1
    assert overheard == []
    assert net._monitors == []


def test_detach_while_packet_in_flight_still_safe():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    net.add_alias("alias-b", b)
    a.send(Packet(src="a", dst="alias-b"))
    net.detach(b)
    sim.run()
    assert b.packets_received == 0


# ----------------------------------------------------------------------
# Bug 2: pseudonym-collision readdress must be atomic
# ----------------------------------------------------------------------
def test_readdress_collision_rolls_back_completely():
    sim, net = make_net()
    a = add_node(sim, net, "pid-a", 0)
    b = add_node(sim, net, "pid-b", 100)
    with pytest.raises(ValueError):
        b.set_address("pid-a")  # collides with a's live pseudonym
    # b's identity is untouched and it is still registered under it
    assert b.address == "pid-b"
    assert net.node_at("pid-b") is b
    assert net.node_at("pid-a") is a
    # and it still receives traffic under the old pseudonym
    a.send(Packet(src="pid-a", dst="pid-b"))
    sim.run()
    assert b.packets_received == 1


def test_readdress_collision_with_alias_rolls_back():
    sim, net = make_net()
    a = add_node(sim, net, "pid-a", 0)
    b = add_node(sim, net, "pid-b", 100)
    net.add_alias("probe-alias", a)
    with pytest.raises(ValueError):
        b.set_address("probe-alias")
    assert b.address == "pid-b"
    assert net.node_at("pid-b") is b
    assert net.node_at("probe-alias") is a


def test_readdress_to_own_address_is_a_noop():
    sim, net = make_net()
    a = add_node(sim, net, "pid-a", 0)
    a.set_address("pid-a")
    assert net.node_at("pid-a") is a


def test_successful_readdress_still_moves_delivery():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    b.set_address("fresh-pid")
    assert net.node_at("b") is None
    a.send(Packet(src="a", dst="fresh-pid"))
    sim.run()
    assert b.packets_received == 1


# ----------------------------------------------------------------------
# Bug 3: handler dispatch must resolve by MRO specificity
# ----------------------------------------------------------------------
class Base(Packet):
    pass


class Middle(Base):
    pass


class Leaf(Middle):
    pass


def test_most_specific_handler_wins_regardless_of_registration_order():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    got = []
    # base class registered FIRST: the old registration-order walk would
    # shadow the more specific handler registered later
    b.register_handler(Packet, lambda p, s: got.append("packet"))
    b.register_handler(Middle, lambda p, s: got.append("middle"))
    # run between sends: delivery jitter would otherwise shuffle arrivals
    for packet in (
        Leaf(src="a", dst="b"),
        Middle(src="a", dst="b"),
        Base(src="a", dst="b"),
        Packet(src="a", dst="b"),
    ):
        a.send(packet)
        sim.run()
    assert got == ["middle", "middle", "packet", "packet"]


def test_exact_type_still_beats_ancestors():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    got = []
    b.register_handler(Base, lambda p, s: got.append("base"))
    b.register_handler(Leaf, lambda p, s: got.append("leaf"))
    a.send(Leaf(src="a", dst="b"))
    sim.run()
    assert got == ["leaf"]


def test_dispatch_cache_invalidated_on_new_registration():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    got = []
    b.register_handler(Base, lambda p, s: got.append("base"))
    a.send(Leaf(src="a", dst="b"))
    sim.run()
    assert got == ["base"]  # resolution for Leaf is now cached
    b.register_handler(Middle, lambda p, s: got.append("middle"))
    a.send(Leaf(src="a", dst="b"))
    sim.run()
    assert got == ["base", "middle"]


def test_chaining_via_handler_for_still_works():
    # The examiner pattern: wrap the currently registered handler.
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    got = []
    b.register_handler(Middle, lambda p, s: got.append("inner"))
    inner = b.handler_for(Middle)

    def outer(p, s):
        got.append("outer")
        inner(p, s)

    b.register_handler(Middle, outer)
    a.send(Middle(src="a", dst="b"))
    sim.run()
    assert got == ["outer", "inner"]


def test_broadcast_after_churn_respects_membership():
    """End-to-end: detach + readdress churn, then a broadcast round."""
    sim, net = make_net()
    sender = add_node(sim, net, "sender", 0)
    stay = add_node(sim, net, "stay", 500)
    leave = add_node(sim, net, "leave", 600)
    renew = add_node(sim, net, "renew", 700)
    net.add_alias("leave-alias", leave)
    net.detach(leave)
    renew.set_address("renewed-pid")
    sender.send(Packet(src="sender", dst=BROADCAST))
    sim.run()
    assert stay.packets_received == 1
    assert leave.packets_received == 0
    assert renew.packets_received == 1
