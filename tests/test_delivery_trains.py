"""Delivery trains: snapshots taken mid-train, train lifetime, and
handlers that raise between legs.

A broadcast whose receivers draw several arrival times rides one
delivery train (``repro.net.network``): one event re-queued leg by leg.
The equivalence with per-receiver delivery is property-tested in
``tests/test_eventloop_equivalence.py``; this file covers what a train
holds on to while it is in flight.
"""

import gc
import itertools
import types
import weakref

import pytest

import repro.net.packets as packets_module
from repro.net import BROADCAST, ChannelConfig, Network, Node, Packet
from repro.net.network import _Train
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim import Simulator
from repro.snapshot import restore, snapshot


def _pending_trains(sim):
    return [
        entry[3].args[0]
        for entry in sim.queue._heap
        if entry[3].args and isinstance(entry[3].args[0], _Train)
    ]


def _hello_mesh(vehicles=100, seed=21):
    """Vehicles beaconing AODV Hellos every second, all at the same
    instants, each receiving from dozens of neighbours."""
    packets_module._packet_ids = itertools.count(1)
    sim = Simulator(seed=seed)
    net = Network(sim, ChannelConfig())
    sim.obs.enable_trace()
    placement = sim.rng("placement")
    for index in range(vehicles):
        node = Node(
            sim,
            f"veh-{index}",
            position=(placement.uniform(0.0, 3000.0), 0.0),
            transmission_range=500.0,
        )
        net.attach(node)
        AodvProtocol(node, AodvConfig(enable_hello=True, hello_interval=1.0))
    return types.SimpleNamespace(sim=sim, net=net)


def _fingerprint(world):
    sim, queue = world.sim, world.sim.queue
    return (
        "\n".join(event.to_json() for event in sim.obs.trace.events),
        sim.events_executed,
        world.net.stats.delivered,
        len(queue),
        queue.high_water,
        queue.stored,
        sim.streams.getstate(),
    )


def test_snapshot_mid_train_restores_byte_identical():
    world = _hello_mesh()
    # 2.1 ms after a beacon instant: inside every beacon's delivery
    # window (per-hop delay 2 ms + up to 0.5 ms jitter)
    world.sim.run(until=3.0021)
    in_flight = _pending_trains(world.sim)
    assert len(in_flight) > 50
    assert world.sim.queue._deferred > 0
    blob = snapshot(world, compress=False)

    world.sim.run(until=6.0)
    straight = _fingerprint(world)

    restored = restore(blob)
    assert len(_pending_trains(restored.sim)) == len(in_flight)
    restored.sim.run(until=6.0)
    assert _fingerprint(restored) == straight


def _line(count=6, seed=4):
    sim = Simulator(seed=seed)
    net = Network(sim, ChannelConfig(jitter=0.002))
    nodes = []
    for index in range(count):
        node = Node(sim, f"n{index}", position=(index * 10.0, 0.0))
        net.attach(node)
        nodes.append(node)
    return sim, net, nodes


def test_finished_train_is_freed_without_the_cycle_collector():
    sim, _net, nodes = _line()
    gc.disable()
    try:
        nodes[0].send(Packet(src="n0", dst=BROADCAST))
        (train,) = _pending_trains(sim)
        assert train.order  # several legs: a real train
        ref = weakref.ref(train)
        del train
        sim.run()
        assert ref() is None
    finally:
        gc.enable()


def test_handler_raising_mid_train_leaves_remaining_legs_queued():
    sim, _net, nodes = _line()
    calls = []

    def handler(packet, sender, node):
        calls.append(node.address)
        if len(calls) == 2:
            raise RuntimeError("boom")

    for node in nodes[1:]:
        node.register_handler(Packet, lambda p, s, node=node: handler(p, s, node))
    nodes[0].send(Packet(src="n0", dst=BROADCAST))
    assert len(sim.queue) == len(nodes) - 1
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert len(calls) == 2
    remaining = len(nodes) - 1 - len(calls)
    assert len(sim.queue) == remaining
    assert sim.queue.stored == remaining
    sim.run()
    assert sorted(calls) == sorted(node.address for node in nodes[1:])
    assert len(sim.queue) == 0 and sim.queue.stored == 0
