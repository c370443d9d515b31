"""``Node.gate``: the admission predicate every delivery path consults.

BlackDP's route verifier installs its blacklist as a vehicle's gate
(``repro.core.verifier.install_verifier``), so a revoked pseudonym
cannot even serve as a relay.  On each of the medium's delivery paths a
packet the gate rejects must reach no handler, count in
``packets_gated`` and leave ``packets_received`` alone, whether the gate
is a plain predicate or the verifier's blacklist:

- ``batch``: a broadcast whose receivers share one arrival time (the
  dark loop of ``Network._arrive_batch``);
- ``train``: a jittered broadcast, each receiver on its own leg of a
  delivery train (the train's single-receiver body);
- ``unicast``: ``Network._arrive`` → ``Node.on_receive``;
- ``traced`` / ``metrics``: a broadcast with observability on, which
  delivers through ``Node.on_receive``.
"""

import random

import pytest

from repro.core.verifier import install_verifier
from repro.crypto.keys import generate_keypair
from repro.mobility import Highway, VehicleMotion
from repro.net import BROADCAST, ChannelConfig, Network, Node, Packet
from repro.sim import Simulator
from repro.vehicles import VehicleNode

PATHS = ["batch", "train", "unicast", "traced", "metrics"]


class Ping(Packet):
    pass


def _world(path, gated_vehicle=False):
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
        if name == "gated" and gated_vehicle:
            motion = VehicleMotion(entry_time=0.0, entry_x=x, speed=0.0)
            node = VehicleNode(sim, Highway(), name, motion)
        else:
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


#: each path once with a plain predicate, and once with the blacklist
#: gate ``install_verifier`` puts on a vehicle
GATES = [pytest.param(path, False, id=path) for path in PATHS] + [
    pytest.param(path, True, id=f"{path}-verifier") for path in PATHS
]


def _not_from_sender(packet, sender_address):
    return sender_address != "sender"


@pytest.mark.parametrize("path,verifier", GATES)
def test_rejected_packet_reaches_no_handler(path, verifier):
    sim, (sender, gated, open_), got = _world(path, gated_vehicle=verifier)
    decide = _not_from_sender
    if verifier:
        install_verifier(gated, generate_keypair(random.Random(3)).public)
        gated.blacklist.add("sender")
        decide = gated.gate
    verdicts = []

    def refuse_sender(packet, sender_address):
        verdicts.append((type(packet), sender_address))
        return decide(packet, sender_address)

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
