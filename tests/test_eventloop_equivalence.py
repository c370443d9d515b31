"""Golden-trace equivalence: the overhauled event loop vs the legacy one.

The hot-path overhaul (tuple-keyed heap, timer wheel, batched broadcast
delivery) must be invisible to every seeded experiment.  These tests run
the same trial under the new defaults and under the legacy
configuration (``USE_TIMER_WHEEL=False`` + ``batch_broadcast=False``,
which together reproduce the pre-overhaul per-event scheduling exactly)
and require byte-identical trace JSONL plus an identical
:class:`TrialSummary`.

Packet uids come from a module-global counter, so each run resets it —
otherwise the second run's trace would differ in uids alone.
"""

import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.packets as packets_module
import repro.sim.simulator as simulator_module
from repro.experiments.config import (
    ATTACK_COOPERATIVE,
    ATTACK_NONE,
    ATTACK_SINGLE,
    TrialConfig,
)
from repro.experiments.executor import summarize_trial
from repro.experiments.trial import run_trial
from repro.net import BROADCAST, ChannelConfig, Network, Node, Packet
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim import Simulator


def _reset_packet_uids():
    packets_module._packet_ids = itertools.count(1)


def _run_table1_trial(monkeypatch, *, attack, cluster, use_wheel, batch):
    _reset_packet_uids()
    monkeypatch.setattr(simulator_module, "USE_TIMER_WHEEL", use_wheel)
    config = TrialConfig(
        seed=7,
        attack=attack,
        attacker_cluster=cluster,
        trace=True,
        channel=ChannelConfig(batch_broadcast=batch),
    )
    result = run_trial(config)
    trace = "\n".join(event.to_json() for event in result.trace_events)
    return trace, summarize_trial(config, result).to_dict()


@pytest.mark.parametrize(
    "attack,cluster",
    [(ATTACK_SINGLE, 4), (ATTACK_COOPERATIVE, 8), (ATTACK_NONE, 4)],
)
def test_table1_trial_traces_are_byte_identical(monkeypatch, attack, cluster):
    new_trace, new_summary = _run_table1_trial(
        monkeypatch, attack=attack, cluster=cluster, use_wheel=True, batch=True
    )
    old_trace, old_summary = _run_table1_trial(
        monkeypatch, attack=attack, cluster=cluster, use_wheel=False, batch=False
    )
    assert new_trace == old_trace
    assert new_summary == old_summary


def test_each_mechanism_is_independently_equivalent(monkeypatch):
    """Wheel-only and batch-only configurations also match the legacy
    run, so a regression can be attributed to one mechanism."""
    baseline = _run_table1_trial(
        monkeypatch, attack=ATTACK_SINGLE, cluster=4, use_wheel=False, batch=False
    )
    wheel_only = _run_table1_trial(
        monkeypatch, attack=ATTACK_SINGLE, cluster=4, use_wheel=True, batch=False
    )
    batch_only = _run_table1_trial(
        monkeypatch, attack=ATTACK_SINGLE, cluster=4, use_wheel=False, batch=True
    )
    assert wheel_only == baseline
    assert batch_only == baseline


def _run_hello_mesh(monkeypatch, *, use_wheel, batch):
    """Jitter-free beacon-heavy mesh: the case where batching genuinely
    merges receivers (identical arrival times) instead of degenerating
    into singleton groups, plus live unicast data on top.
    """
    _reset_packet_uids()
    monkeypatch.setattr(simulator_module, "USE_TIMER_WHEEL", use_wheel)
    sim = Simulator(seed=11)
    net = Network(
        sim, ChannelConfig(jitter=0.0, loss_rate=0.05, batch_broadcast=batch)
    )
    sim.obs.enable_trace()
    nodes = []
    placement = sim.rng("placement")
    for i in range(24):
        node = Node(
            sim, f"n{i}", position=(placement.uniform(0, 3000), 0.0),
            transmission_range=600.0,
        )
        net.attach(node)
        protocol = AodvProtocol(
            node, AodvConfig(enable_hello=True, hello_interval=1.0)
        )
        nodes.append((node, protocol))
    received = []
    nodes[-1][1].add_data_sink(
        lambda packet: received.append((sim.now, packet.payload))
    )
    sim.run(until=3.0)
    source = nodes[0][1]
    destination = nodes[-1][0].address
    source.discover(
        destination, lambda _result: source.send_data(destination, "probe")
    )
    sim.run(until=12.0)
    trace = "\n".join(event.to_json() for event in sim.obs.trace.events)
    return trace, received, sim.events_executed


def test_hello_mesh_batching_is_trace_identical_with_fewer_events(monkeypatch):
    new_trace, new_rx, new_events = _run_hello_mesh(
        monkeypatch, use_wheel=True, batch=True
    )
    old_trace, old_rx, old_events = _run_hello_mesh(
        monkeypatch, use_wheel=False, batch=False
    )
    assert new_trace == old_trace
    assert new_rx == old_rx
    # with jitter=0 every beacon's receivers share one arrival time, so
    # the batched run executes far fewer events for identical behaviour
    assert new_events < old_events * 0.6


# ----------------------------------------------------------------------
# Delivery trains vs the per-receiver oracle
# ----------------------------------------------------------------------
# With jitter every receiver of a broadcast draws its own arrival time,
# so each leg of a delivery train stands for exactly one per-receiver
# event of ``batch_broadcast=False``: the two runs must match event for
# event, not just in outcome.  ``_Ripple`` floods (re-broadcast while
# other trains are still in flight) and per-node watchdog timers that
# every delivery restarts (cancelled corpses, compactions) make the
# queue accounting non-trivial.
PER_HOP = 0.002
BEACON_PERIOD = 0.05
BEACON_STAGGER = 0.0007


@dataclass(slots=True)
class _Ripple(Packet):
    ttl: int = 0


class _MeshNode:
    """A node that beacons ripples and logs every delivery it handles."""

    def __init__(self, sim, net, log, index, x, *, beacons, wheel):
        self.sim = sim
        self.log = log
        self.beacons = beacons
        self.wheel = wheel
        self.node = Node(sim, f"m{index}", position=(x, 0.0), transmission_range=450.0)
        net.attach(self.node)
        self.node.register_handler(_Ripple, self.on_ripple)
        self.watchdog = None
        self.sent = 0
        sim.schedule(index * BEACON_STAGGER, self.beacon)

    def beacon(self):
        if self.node.network is None:
            return  # detached mid-run
        self.node.send(_Ripple(src=self.node.address, dst=BROADCAST, ttl=1))
        self.sent += 1
        if self.sent < self.beacons:
            self.sim.schedule(BEACON_PERIOD, self.beacon)

    def on_ripple(self, packet, sender):
        self.log.append((self.sim.now, self.node.address, sender, packet.ttl))
        if self.watchdog is not None:
            self.watchdog.cancel()
        self.watchdog = self.sim.schedule(
            0.01, self.expire, wheel=self.wheel, label="watchdog"
        )
        if packet.ttl and len(self.log) % 3 == 0:
            self.node.send(_Ripple(src=self.node.address, dst=BROADCAST, ttl=0))

    def expire(self):
        self.log.append((self.sim.now, self.node.address, "expired", -1))
        self.watchdog = None


def _mesh(seed, size, loss, jitter, *, batch, beacons=4, wheel=True):
    sim = Simulator(seed=seed)
    net = Network(
        sim,
        ChannelConfig(jitter=jitter, loss_rate=loss, batch_broadcast=batch),
    )
    log = []
    placement = sim.rng("placement")
    for index in range(size):
        _MeshNode(
            sim, net, log, index, placement.uniform(0.0, 1200.0),
            beacons=beacons, wheel=wheel,
        )
    return sim, net, log


def _observe(sim, log):
    queue = sim.queue
    return (
        sim.now,
        tuple(log),
        sim.streams.getstate(),
        sim.events_executed,
        len(queue),
        queue.high_water,
        queue.stored,
        queue.cancelled_fraction,
    )


def _mid_train(beacon, node, fraction, jitter):
    """A time inside the delivery window of one node's beacon."""
    sent = node * BEACON_STAGGER + beacon * BEACON_PERIOD
    return sent + PER_HOP + fraction * jitter


_PAUSE = st.one_of(
    st.tuples(
        st.just("until"),
        st.integers(0, 3),
        st.integers(0, 11),
        st.floats(0.0, 1.0),
    ),
    st.tuples(st.just("step"), st.integers(1, 60)),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(3, 12),
    loss=st.sampled_from([0.0, 0.15, 0.4]),
    jitter=st.floats(0.0002, 0.003),
    wheel=st.booleans(),
    pauses=st.lists(_PAUSE, max_size=10),
)
def test_trains_match_per_receiver_oracle_at_every_pause(
    seed, size, loss, jitter, wheel, pauses
):
    trains = _mesh(seed, size, loss, jitter, batch=True, wheel=wheel)
    oracle = _mesh(seed, size, loss, jitter, batch=False, wheel=wheel)
    for pause in pauses:
        for sim, _net, _log in (trains, oracle):
            if pause[0] == "until":
                _, beacon, node, fraction = pause
                sim.run(until=max(sim.now, _mid_train(beacon, node, fraction, jitter)))
            else:
                for _ in range(pause[1]):
                    sim.step()
        assert _observe(trains[0], trains[2]) == _observe(oracle[0], oracle[2])
    for sim, _net, _log in (trains, oracle):
        sim.run()
    assert _observe(trains[0], trains[2]) == _observe(oracle[0], oracle[2])


def test_pause_between_legs_of_one_train():
    """Pausing inside one beacon's delivery window leaves that beacon's
    train part-delivered, and the queue still reads like the oracle's."""
    jitter = 0.002
    trains = _mesh(5, 10, 0.0, jitter, batch=True)
    oracle = _mesh(5, 10, 0.0, jitter, batch=False)
    until = _mid_train(0, 0, 0.5, jitter)
    for sim, _net, _log in (trains, oracle):
        sim.run(until=until)
    assert trains[0].queue._deferred > 0
    assert _observe(trains[0], trains[2]) == _observe(oracle[0], oracle[2])
    for sim, _net, _log in (trains, oracle):
        sim.run()
    assert _observe(trains[0], trains[2]) == _observe(oracle[0], oracle[2])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_receiver_detached_mid_train_matches_oracle(seed):
    jitter = 0.002
    worlds = [
        _mesh(seed, 10, 0.1, jitter, batch=batch) for batch in (True, False)
    ]
    until = _mid_train(1, 4, 0.4, jitter)
    for sim, net, _log in worlds:
        sim.run(until=until)
        # a receiver whose leg is still pending leaves the medium
        net.detach(net.nodes[len(net.nodes) // 2])
    (trains, _, train_log), (oracle, _, oracle_log) = worlds
    assert _observe(trains, train_log) == _observe(oracle, oracle_log)
    for sim, _net, _log in worlds:
        sim.run()
    assert _observe(trains, train_log) == _observe(oracle, oracle_log)


def test_clear_with_trains_pending_matches_oracle():
    jitter = 0.002
    worlds = [_mesh(9, 10, 0.0, jitter, batch=batch) for batch in (True, False)]
    until = _mid_train(2, 3, 0.5, jitter)
    for sim, net, _log in worlds:
        sim.run(until=until)
    assert worlds[0][0].queue._deferred > 0
    for sim, net, _log in worlds:
        sim.queue.clear()
        assert len(sim.queue) == 0
        assert sim.queue.stored == 0
        # the medium keeps working after the purge
        net.nodes[0].send(_Ripple(src=net.nodes[0].address, dst=BROADCAST, ttl=1))
        sim.run()
    (trains, _, train_log), (oracle, _, oracle_log) = worlds
    assert _observe(trains, train_log) == _observe(oracle, oracle_log)


class _ScriptedRng:
    """Stands in for the channel stream: replays fixed draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


@pytest.mark.parametrize(
    "sent,draws",
    [
        # receivers sharing a delay form one multi-receiver leg
        (1.0, [0.5, 0.1, 0.5, 0.9, 0.1]),
        # distinct delays rounding to one arrival time: first
        # occurrence, not the smaller delay, fires first
        (2.0**20, [0.5 + 1e-9, 0.5, 0.7, 0.5 + 2e-9, 0.2]),
    ],
)
def test_train_legs_with_shared_arrivals_match_oracle(sent, draws):
    logs = []
    for batch in (True, False):
        sim = Simulator(seed=1)
        net = Network(sim, ChannelConfig(jitter=0.0005, batch_broadcast=batch))
        net._rng = _ScriptedRng(draws)
        log = []
        nodes = []
        for index in range(len(draws) + 1):
            node = Node(sim, f"s{index}", position=(index * 10.0, 0.0))
            net.attach(node)
            node.register_handler(
                Packet, lambda _p, _s, node=node: log.append((sim.now, node.address))
            )
            nodes.append(node)
        sim.schedule_at(sent, nodes[0].send, args=(Packet(src="s0", dst=BROADCAST),))
        sim.run()
        logs.append((log, sim.events_executed))
    trains, oracle = logs
    assert trains[0] == oracle[0]
    assert len({time for time, _ in oracle[0]}) < len(draws)
