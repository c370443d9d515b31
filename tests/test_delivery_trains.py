"""Delivery trains: train lifetime, handlers that raise between legs,
flat memory in a steady beacon mesh, and the edge cases of draining
legs in place.

A broadcast whose receivers draw several arrival times rides one
delivery train (``repro.net.network``): one event re-queued leg by leg.
The equivalence with per-receiver delivery is property-tested in
``tests/test_eventloop_equivalence.py``; this file covers what a train
holds on to while it is in flight, and checks that a train draining the
legs due next (instead of returning to the loop) stops exactly where
the loop would have done something else.  The undrained references are
profiled runs, whose loop never drains, and the per-receiver oracle.
"""

import gc
import itertools
import tracemalloc
import types
import weakref
from functools import partial

import pytest

import repro.net.packets as packets_module
from repro.net import BROADCAST, ChannelConfig, Network, Node, Packet
from repro.net.network import _Train
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim import SimulationError, Simulator
from tests.helpers import PER_RECEIVER, patch_network


def _pending_trains(sim):
    return [
        entry[3].args[0]
        for entry in sim.queue._heap
        if entry[3].args and isinstance(entry[3].args[0], _Train)
    ]


def _hello_mesh(vehicles=100, seed=21, length=3000.0):
    """Vehicles beaconing AODV Hellos every second, all at the same
    instants, each receiving from dozens of neighbours."""
    packets_module._packet_ids = itertools.count(1)
    sim = Simulator(seed=seed)
    net = Network(sim, ChannelConfig())
    placement = sim.rng("placement")
    for index in range(vehicles):
        node = Node(
            sim,
            f"veh-{index}",
            position=(placement.uniform(0.0, length), 0.0),
            transmission_range=500.0,
        )
        net.attach(node)
        AodvProtocol(node, AodvConfig(enable_hello=True, hello_interval=1.0))
    return types.SimpleNamespace(sim=sim, net=net)


#: Allowed heap growth over 8 steady-state seconds of the Hello mesh
#: below.  The mesh makes about 800 broadcasts and 7000 deliveries in
#: that span, so retaining even one small object per broadcast exceeds
#: it; a healthy run grows by well under 1 KiB.
FLAT_MEMORY_BOUND = 16 * 1024


def test_steady_hello_mesh_memory_stays_flat():
    """Once every route and cache is warm, delivering more beacons must
    not grow the heap: events, trains and packets are all freed."""
    world = _hello_mesh(seed=42, length=10_000.0)
    tracemalloc.start()
    try:
        world.sim.run(until=4.0)
        gc.collect()
        warm, _ = tracemalloc.get_traced_memory()
        world.sim.run(until=12.0)
        gc.collect()
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert world.net.stats.delivered > 10_000
    assert end - warm < FLAT_MEMORY_BOUND


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


# ----------------------------------------------------------------------
# Draining legs in place
# ----------------------------------------------------------------------
def _record(log, sim, node, after, packet, sender_address):
    log.append((sim.now, node.address, sender_address))
    if after is not None:
        after(sim, log)


def _mesh(*, networks=1, drain=True, oracle=False, after=None):
    """Six nodes per radio mesh, ``networks`` meshes on one simulator,
    all in range of each other with 2 ms jitter, so the broadcasts of
    :func:`_flood` ride trains whose legs interleave.  Each delivery is
    logged, then ``after(sim, log)`` runs.  ``drain=False`` profiles
    the run: the profiled loop never drains.  ``oracle`` switches the
    meshes to per-receiver delivery (one event per receiver)."""
    packets_module._packet_ids = itertools.count(1)
    sim = Simulator(seed=4)
    if not drain:
        sim.obs.enable_profiler()
    log = []
    nets = []
    for mesh in range(networks):
        net = Network(sim, ChannelConfig(jitter=0.002))
        if oracle:
            patch_network(net, PER_RECEIVER)
        for index in range(6):
            node = Node(sim, f"m{mesh}-{index}", position=(index * 10.0, 0.0))
            net.attach(node)
            node.register_handler(Packet, partial(_record, log, sim, node, after))
        nets.append(net)
    return sim, nets, log


def _flood(nets):
    for net in nets:
        for node in net.nodes:
            node.send(Packet(src=node.address, dst=BROADCAST))


def _state(sim, nets, log):
    queue = sim.queue
    return (
        list(log),
        sim.events_executed,
        sim.now,
        len(queue),
        queue.stored,
        queue._deferred,
        [net.stats.delivered for net in nets],
        [len(net._trains) for net in nets],
    )


def _both(scenario, arrivals, **mesh):
    """``scenario(sim, nets, log)`` on a draining mesh, then on an
    undrained one; returns both results and the loop's calls into
    ``_arrive_train`` during the draining run."""
    arrivals.clear()
    drained = scenario(*_mesh(**mesh))
    calls = len(arrivals)
    reference = scenario(*_mesh(drain=False, **mesh))
    return drained, reference, calls


@pytest.fixture
def arrivals(monkeypatch):
    """Counts the loop's calls into Network._arrive_train: fewer calls
    than legs delivered means the rest were drained in place."""
    calls = []
    original = Network._arrive_train

    def counted(net, train):
        calls.append(train)
        return original(net, train)

    monkeypatch.setattr(Network, "_arrive_train", counted)
    return calls


def _leg_log(**mesh):
    sim, nets, log = _mesh(drain=False, **mesh)
    _flood(nets)
    sim.run()
    return log


def _flood_and_run(sim, nets, log):
    _flood(nets)
    sim.run()
    return _state(sim, nets, log)


def _run_twice(sim, nets, log, **first_run):
    """Flood, run with ``first_run`` (catching a SimulationError or
    RuntimeError), then run to the end; returns both states and the
    message of the error caught, if any."""
    _flood(nets)
    error = None
    try:
        sim.run(**first_run)
    except (SimulationError, RuntimeError) as caught:
        error = str(caught)
    first = _state(sim, nets, log)
    sim.run()
    return first, _state(sim, nets, log), error


def test_drained_run_matches_the_per_receiver_oracle(arrivals):
    # with jitter every receiver draws its own delay: one leg each
    drained = _flood_and_run(*_mesh())
    calls = len(arrivals)
    oracle = _flood_and_run(*_mesh(oracle=True))
    assert drained == oracle
    assert len(drained[0]) == 30
    assert 0 < calls < 30


def test_until_between_legs_of_different_trains(arrivals):
    log = _leg_log()
    # the first gap between consecutive legs of two different trains
    cut = next(
        index
        for index in range(8, len(log))
        if log[index][0] > log[index - 1][0] and log[index][2] != log[index - 1][2]
    )
    until = (log[cut - 1][0] + log[cut][0]) / 2
    drained, reference, calls = _both(partial(_run_twice, until=until), arrivals)
    assert drained == reference
    first, final, _ = drained
    assert len(first[0]) == first[1] == cut and first[2] == until
    assert final[0] == log
    assert calls < 30


def _stop_at_seventh(sim, log):
    if len(log) == 7:
        sim.stop()


def test_stop_mid_drain(arrivals):
    drained, reference, calls = _both(_run_twice, arrivals, after=_stop_at_seventh)
    assert drained == reference
    first, final, _ = drained
    assert len(first[0]) == first[1] == 7 and first[3] == 23
    assert len(final[0]) == final[1] == 30
    assert calls < 30


@pytest.mark.parametrize("limit", [1, 7, 13])
def test_max_events_raises_at_the_same_count(arrivals, limit):
    drained, reference, calls = _both(
        partial(_run_twice, max_events=limit), arrivals
    )
    assert drained == reference
    first, final, error = drained
    assert f"max_events={limit}" in error
    assert len(first[0]) == first[1] == limit
    assert len(final[0]) == final[1] == 30
    assert calls < 30


def _boom_at_ninth(sim, log):
    if len(log) == 9:
        raise RuntimeError("boom")


def test_handler_raising_mid_drain_leaves_later_legs_queued_and_uncounted(arrivals):
    drained, reference, calls = _both(_run_twice, arrivals, after=_boom_at_ninth)
    assert drained == reference
    first, final, error = drained
    assert error == "boom"
    # nine deliveries ran, the ninth raised: eight counted, 21 queued
    assert len(first[0]) == 9 and first[1] == 8
    assert first[3] == first[4] == 21
    assert len(final[0]) == 30 and final[1] == 29
    assert calls < 30


def _cancel_second_train(sim):
    # The leg due first runs from the loop; when its train drains, the
    # cancelled leg due after it is on the heap top.
    trains = sorted(_pending_trains(sim), key=lambda train: train.event.time)
    trains[1].event.cancel()


def _flood_at(sim, nets, log, *, sent, timer=None, cancel=None):
    """Flood at ``sent``; optionally a wheel timer that logs at
    ``timer``, and at ``cancel`` the cancellation of the train whose
    leg is due second, which leaves that leg a corpse in the heap."""
    sim.schedule_at(sent, _flood, args=(nets,))
    if timer is not None:
        sim.schedule_at(
            timer, lambda: log.append((sim.now, "timer", None)), wheel=True
        )
        assert sim.queue.wheel.stored == 1
    if cancel is not None:
        sim.schedule_at(cancel, _cancel_second_train, args=(sim,))
    sim.run()
    return _state(sim, nets, log)


def test_wheel_timer_due_between_two_legs(arrivals):
    # legs of a flood sent at 0.2475 arrive in [0.2495, 0.2515]; a
    # wheel timer in the slot from 0.25 is due between two of them
    log = _leg_log()
    offsets = [entry[0] for entry in log]
    sent = 0.2475
    timer = next(
        sent + (a + b) / 2
        for a, b in zip(offsets, offsets[1:])
        if sent + a > 0.2501 and b > a
    )
    drained, reference, calls = _both(
        partial(_flood_at, sent=sent, timer=timer), arrivals
    )
    assert drained == reference
    times = [entry[0] for entry in drained[0]]
    position = [entry[1] for entry in drained[0]].index("timer")
    assert times[position - 1] < timer < times[position + 1]
    assert calls < 30


def test_cancelled_corpse_on_the_heap_top(arrivals):
    offsets = [entry[0] for entry in _leg_log()]
    cancel = (offsets[10] + offsets[11]) / 2
    drained, reference, calls = _both(
        partial(_flood_at, sent=0.0, cancel=cancel), arrivals
    )
    assert drained == reference
    # the cancelled train's later legs never run, and the cancel retired
    # them: nothing is left pending, stored or in flight
    assert 11 < len(drained[0]) < 30
    assert calls < len(drained[0])
    assert drained[3] == drained[4] == drained[5] == 0
    assert drained[7] == [0]


def test_two_networks_on_one_simulator_drain_only_their_own_legs(arrivals):
    drained, reference, calls = _both(_flood_and_run, arrivals, networks=2)
    assert drained == reference
    log = drained[0]
    assert drained[6] == [30, 30]
    # the two meshes' legs interleave, so each drain hands back to the
    # loop at the other mesh's legs
    meshes = [entry[1][:2] for entry in log]
    switches = sum(a != b for a, b in zip(meshes, meshes[1:]))
    assert switches > 10
    assert calls < 60
    oracle = _flood_and_run(*_mesh(networks=2, oracle=True))
    assert oracle == drained
