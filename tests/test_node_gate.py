"""``Node.gate``: the admission predicate every delivery path consults.

BlackDP's route verifier installs its blacklist as a vehicle's gate
(``repro.core.verifier._BlacklistGate``), so a revoked pseudonym cannot
even serve as a relay.  On each of the medium's delivery paths a packet
the gate rejects must reach no handler, count in ``packets_gated`` and
leave ``packets_received`` alone:

- ``batch``: a broadcast whose receivers share one arrival time (the
  dark loop of ``Network._arrive_batch``);
- ``train``: a jittered broadcast, each receiver on its own leg of a
  delivery train (the train's single-receiver body);
- ``unicast``: ``Network._arrive`` → ``Node.on_receive``;
- ``traced`` / ``metrics``: a broadcast with observability on, which
  delivers through ``Node.on_receive``.
"""

import pytest

from repro.net import BROADCAST, ChannelConfig, Network, Node, Packet
from repro.sim import Simulator

PATHS = ["batch", "train", "unicast", "traced", "metrics"]


class Ping(Packet):
    pass


def _world(path):
    sim = Simulator(seed=3)
    # Jitter spreads a broadcast's receivers over several arrival times,
    # so only the train path keeps it.
    net = Network(sim, ChannelConfig(jitter=0.001 if path == "train" else 0.0))
    if path == "traced":
        sim.obs.enable_trace()
    elif path == "metrics":
        sim.obs.enable_metrics()
    nodes = []
    for name, x in (("sender", 0.0), ("gated", 100.0), ("open", 200.0)):
        node = Node(sim, name, position=(x, 0.0))
        net.attach(node)
        nodes.append(node)
    got = {"gated": [], "open": []}
    for node in nodes[1:]:
        node.register_handler(Ping, lambda p, s, seen=got[node.node_id]: seen.append(s))
    return sim, nodes, got


def _send(sim, sender, path):
    if path == "unicast":
        sender.send(Ping(src=sender.address, dst="gated"))
        sender.send(Ping(src=sender.address, dst="open"))
    else:
        sender.send(Ping(src=sender.address, dst=BROADCAST))
    sim.run()


@pytest.mark.parametrize("path", PATHS)
def test_rejected_packet_reaches_no_handler(path):
    sim, (sender, gated, open_), got = _world(path)
    verdicts = []

    def refuse_sender(packet, sender_address):
        verdicts.append((type(packet), sender_address))
        return sender_address != "sender"

    gated.gate = refuse_sender
    _send(sim, sender, path)
    assert verdicts == [(Ping, "sender")]
    assert got["gated"] == []
    assert gated.packets_gated == 1
    assert gated.packets_received == 0
    # the gate is per node: the ungated receiver is untouched
    assert got["open"] == ["sender"]
    assert open_.packets_gated == 0
    assert open_.packets_received == 1


@pytest.mark.parametrize("path", PATHS)
def test_admitted_packet_is_delivered(path):
    sim, (sender, gated, _), got = _world(path)
    gated.gate = lambda packet, sender_address: True
    _send(sim, sender, path)
    assert got["gated"] == ["sender"]
    assert gated.packets_gated == 0
    assert gated.packets_received == 1


@pytest.mark.parametrize("path", PATHS)
def test_clearing_the_gate_restores_delivery(path):
    sim, (sender, gated, _), got = _world(path)
    gated.gate = lambda packet, sender_address: False
    _send(sim, sender, path)
    assert got["gated"] == [] and gated.packets_gated == 1
    gated.gate = None
    _send(sim, sender, path)
    assert got["gated"] == ["sender"]
    assert gated.packets_gated == 1
    assert gated.packets_received == 1
