"""Tests for the unit-disk radio, addressing and the wired backbone."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import BROADCAST, ChannelConfig, Network, Node, Packet
from repro.sim import Simulator
from tests.helpers import PER_RECEIVER, patch_network


def make_net(seed=1, **config):
    sim = Simulator(seed=seed)
    net = Network(sim, ChannelConfig(**config)) if config else Network(sim)
    return sim, net


def add_node(sim, net, node_id, x, range_=1000.0):
    node = Node(sim, node_id, position=(x, 0.0), transmission_range=range_)
    net.attach(node)
    return node


def test_unicast_delivers_within_range():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 999)
    a.send(Packet(src="a", dst="b"))
    sim.run()
    assert b.packets_received == 1
    assert net.stats.delivered == 1


def test_unicast_dropped_out_of_range():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 1001)
    a.send(Packet(src="a", dst="b"))
    sim.run()
    assert b.packets_received == 0
    assert net.stats.dropped_out_of_range == 1


def test_bidirectionality_uses_smaller_range():
    # paper assumption: links must be bidirectional, so a long-range node
    # cannot reach a short-range node it cannot hear back from
    sim, net = make_net()
    strong = add_node(sim, net, "strong", 0, range_=2000.0)
    weak = add_node(sim, net, "weak", 1500, range_=1000.0)
    strong.send(Packet(src="strong", dst="weak"))
    sim.run()
    assert weak.packets_received == 0
    assert not net.in_range(strong, weak)
    assert not net.in_range(weak, strong)


def test_broadcast_reaches_all_in_range_only():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    near = add_node(sim, net, "near", 500)
    far = add_node(sim, net, "far", 1500)
    a.send(Packet(src="a", dst=BROADCAST))
    sim.run()
    assert near.packets_received == 1
    assert far.packets_received == 0
    assert a.packets_received == 0  # no self-delivery


def test_delivery_has_positive_latency():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    arrival = []
    b.register_handler(Packet, lambda p, s: arrival.append(sim.now))
    a.send(Packet(src="a", dst="b"))
    sim.run()
    assert arrival and arrival[0] >= net.config.per_hop_delay


def test_loss_rate_drops_packets():
    sim, net = make_net(seed=3, loss_rate=0.5)
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    for _ in range(200):
        a.send(Packet(src="a", dst="b"))
    sim.run()
    assert 0 < b.packets_received < 200
    assert net.stats.dropped_loss == 200 - b.packets_received


def test_loss_rate_validation():
    with pytest.raises(ValueError):
        ChannelConfig(loss_rate=1.0)
    with pytest.raises(ValueError):
        ChannelConfig(per_hop_delay=-1.0)


def test_unknown_destination_counted():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    a.send(Packet(src="a", dst="ghost"))
    sim.run()
    assert net.stats.dropped_unknown_address == 1


def test_duplicate_address_attach_rejected():
    sim, net = make_net()
    add_node(sim, net, "a", 0)
    with pytest.raises(ValueError):
        add_node(sim, net, "a", 10)


def test_readdress_moves_delivery():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    b.set_address("new-pid")
    a.send(Packet(src="a", dst="b"))
    a.send(Packet(src="a", dst="new-pid"))
    sim.run()
    assert b.packets_received == 1
    assert net.stats.dropped_unknown_address == 1


def test_detached_node_never_receives_in_flight_packet():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    a.send(Packet(src="a", dst="b"))
    net.detach(b)  # leaves before the delivery event fires
    sim.run()
    assert b.packets_received == 0


def test_handler_dispatch_prefers_exact_type():
    class Special(Packet):
        pass

    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 100)
    got = []
    b.register_handler(Packet, lambda p, s: got.append("base"))
    b.register_handler(Special, lambda p, s: got.append("special"))
    a.send(Special(src="a", dst="b"))
    a.send(Packet(src="a", dst="b"))
    sim.run()
    assert sorted(got) == ["base", "special"]


def test_backbone_delivery_ignores_radio_range():
    sim, net = make_net()
    rsu1 = add_node(sim, net, "rsu1", 0)
    rsu2 = add_node(sim, net, "rsu2", 5000)
    rsu3 = add_node(sim, net, "rsu3", 10_000)
    net.connect_backbone(rsu1, rsu2)
    net.connect_backbone(rsu2, rsu3)
    assert net.transmit_backbone(rsu1, Packet(src="rsu1", dst="rsu3"))
    sim.run()
    assert rsu3.packets_received == 1
    assert net.backbone_path_length("rsu1", "rsu3") == 2


def test_backbone_unreachable_returns_false():
    sim, net = make_net()
    rsu1 = add_node(sim, net, "rsu1", 0)
    lone = add_node(sim, net, "lone", 9000)
    assert not net.transmit_backbone(rsu1, Packet(src="rsu1", dst="lone"))
    sim.run()
    assert lone.packets_received == 0


def test_neighbors_lists_in_range_nodes():
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", 800)
    c = add_node(sim, net, "c", 1900)
    assert {n.node_id for n in net.neighbors(a)} == {"b"}
    assert {n.node_id for n in net.neighbors(b)} == {"a"}  # c is 1100 m away
    assert net.neighbors(c) == []


@given(
    positions=st.lists(
        st.floats(0, 10_000, allow_nan=False), min_size=2, max_size=12, unique=True
    )
)
def test_in_range_is_symmetric(positions):
    sim, net = make_net()
    nodes = [add_node(sim, net, f"n{i}", x) for i, x in enumerate(positions)]
    for a in nodes:
        for b in nodes:
            assert net.in_range(a, b) == net.in_range(b, a)


@given(x=st.floats(0, 3000, allow_nan=False))
def test_in_range_matches_distance_threshold(x):
    sim, net = make_net()
    a = add_node(sim, net, "a", 0)
    b = add_node(sim, net, "b", x)
    assert net.in_range(a, b) == (x <= 1000.0)


# ----------------------------------------------------------------------
# Promiscuous monitors: registration is re-checked at delivery time
# ----------------------------------------------------------------------
def _monitor_setup(batch=True):
    sim, net = make_net()
    if not batch:
        patch_network(net, PER_RECEIVER)
    sender = add_node(sim, net, "sender", 0)
    add_node(sim, net, "receiver", 500)
    watcher = add_node(sim, net, "watcher", 200)
    overheard = []
    callback = lambda p, s, d: overheard.append((p.uid, s, d))  # noqa: E731
    net.add_monitor(watcher, callback)
    return sim, net, sender, watcher, callback, overheard


@pytest.mark.parametrize("batch", [True, False])
def test_monitor_removed_in_flight_never_hears(batch):
    """A monitor removed while the overhear delivery is still in the air
    must not receive it — registration is re-checked on arrival (both
    the batched entry-tuple path and the per-monitor reference path)."""
    sim, net, sender, watcher, _callback, overheard = _monitor_setup(batch)
    sender.send(Packet(src="sender", dst="receiver"))
    # The overhear is in flight (per_hop_delay away); detach before it
    # lands.  Delay 0 sorts ahead of the radio delay in the event queue.
    sim.schedule(0.0, lambda: net.remove_monitor(watcher))
    sim.run()
    assert overheard == []


@pytest.mark.parametrize("batch", [True, False])
def test_monitor_present_at_arrival_hears(batch):
    sim, net, sender, _watcher, _callback, overheard = _monitor_setup(batch)
    sender.send(Packet(src="sender", dst="receiver"))
    sim.run()
    assert len(overheard) == 1
    assert overheard[0][1:] == ("sender", "receiver")


@pytest.mark.parametrize("batch", [True, False])
def test_monitor_removed_by_earlier_callback_in_same_batch_never_hears(batch):
    """Two monitors overhear one unicast; the first callback removes the
    second monitor, which must then not hear the same transmission."""
    sim, net = make_net()
    if not batch:
        patch_network(net, PER_RECEIVER)
    sender = add_node(sim, net, "sender", 0)
    add_node(sim, net, "receiver", 500)
    first = add_node(sim, net, "w1", 200)
    second = add_node(sim, net, "w2", 300)
    heard = []

    def first_callback(packet, src, dst):
        heard.append("w1")
        net.remove_monitor(second)

    net.add_monitor(first, first_callback)
    net.add_monitor(second, lambda p, s, d: heard.append("w2"))
    sender.send(Packet(src="sender", dst="receiver"))
    sim.run()
    assert heard == ["w1"]


def test_remove_monitor_by_callback_keeps_other_taps():
    """Two services can share one node's radio tap; removing one
    callback must leave the other registered."""
    sim, net = make_net()
    sender = add_node(sim, net, "sender", 0)
    add_node(sim, net, "receiver", 500)
    watcher = add_node(sim, net, "watcher", 200)
    first, second = [], []
    first_cb = lambda p, s, d: first.append(p.uid)  # noqa: E731
    second_cb = lambda p, s, d: second.append(p.uid)  # noqa: E731
    net.add_monitor(watcher, first_cb)
    net.add_monitor(watcher, second_cb)
    net.remove_monitor(watcher, first_cb)
    sender.send(Packet(src="sender", dst="receiver"))
    sim.run()
    assert first == []
    assert len(second) == 1
    # Removing without a callback drops every remaining tap.
    net.remove_monitor(watcher)
    sender.send(Packet(src="sender", dst="receiver"))
    sim.run()
    assert len(second) == 1
