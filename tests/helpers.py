"""Shared test fixtures: quick topology builders and reference paths.

A "chain" places nodes 800 m apart with 1000 m radios, so each node only
reaches its immediate neighbours — the standard multi-hop line topology
for AODV tests.

The reference paths are the straightforward implementations that the
production hot paths must match exactly.  Golden-trace tests patch them
onto :class:`~repro.net.network.Network` (or a single instance, see
:func:`patch_network`) and onto :class:`~repro.sim.wheel.TimerWheel`;
the sketch property tests run one beside
:class:`~repro.sketch.CountMinSketch`:

- :data:`PER_RECEIVER` — one delivery event per broadcast receiver and
  one overhear event per monitor, instead of delivery trains and
  batched overhearing;
- :data:`BRUTE_FORCE` — O(N) neighbour and radio-tap scans and exact
  range checks, instead of the spatial grid and its cached
  neighbourhoods;
- :func:`refuse_wheel_insert` — a timer wheel that files nothing, so
  every event goes through the heap;
- :class:`DenseCountMinSketch` — a count-min sketch with list rows
  allocated up front, merged and reset cell by cell, instead of typed
  rows allocated on first use and dropped on reset.
"""

from __future__ import annotations

import zlib
from types import MethodType

from repro.net import ChannelConfig, Network, Node
from repro.routing import AodvConfig, AodvProtocol
from repro.sim import Simulator
from repro.sketch.summaries import _salt


# ----------------------------------------------------------------------
# Reference paths
# ----------------------------------------------------------------------
def broadcast_per_receiver(net, sender, receivers, packet):
    """Schedule one delivery event per receiver (loss and jitter drawn
    per receiver, in receiver order)."""
    for receiver in receivers:
        net._deliver(sender, receiver, packet)


def overhear_per_monitor(net, sender, packet):
    """Schedule one overhear event per in-range monitor."""
    taps = [
        entry
        for entry in net._monitors
        if entry[0] is not sender and net.in_range(sender, entry[0])
    ]
    schedule_overhear_per_monitor(net, taps, packet, sender)


def schedule_overhear_per_monitor(net, taps, packet, sender):
    """Schedule one overhear event per tap."""
    sender_address = packet.src or sender.address
    sim = net.sim
    arrival = sim.now + net.config.per_hop_delay
    for monitor, callback in taps:
        sim.queue.push_delivery(
            arrival,
            _overhear_arrive_one,
            (net, monitor, callback, packet, sender_address),
            f"overhear {packet.kind}",
            None,
        )


def _overhear_arrive_one(net, monitor, callback, packet, sender_address):
    # registration is re-checked on arrival, as on the batched path
    if (monitor, callback) in net._monitors:
        callback(packet, sender_address, packet.dst)


def brute_neighbors(net, node):
    """Every attached node in bidirectional range, in attach order."""
    return [other for other in net.nodes if net._pair_in_range(node, other)]


def brute_in_range(net, a, b):
    """The exact unit-disk predicate, no grid rejection."""
    return net._pair_in_range(a, b)


def brute_taps(net, sender):
    """Every monitor entry in range of ``sender``, in registration order."""
    return tuple(
        entry for entry in net._monitors if net._pair_in_range(sender, entry[0])
    )


def brute_reach(net, sender):
    """A broadcast's receivers and taps, each by its own O(N) scan."""
    return brute_neighbors(net, sender), brute_taps(net, sender)


def refuse_wheel_insert(wheel, event):
    """A wheel that refuses every entry: the queue falls back to the heap."""
    return False


class DenseCountMinSketch:
    """A count-min sketch whose rows are plain lists of float counters,
    allocated up front, merged and reset one cell at a time."""

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 1) -> None:
        self.width = width
        self.depth = depth
        self.seed = seed
        self.total = 0.0
        self._salts = tuple(_salt(seed, row) for row in range(depth))
        self._rows = [[0.0] * width for _ in range(depth)]

    def add(self, key: str, amount: float = 1.0) -> None:
        data = key.encode()
        for row, salt in zip(self._rows, self._salts):
            row[zlib.crc32(data, salt) % self.width] += amount
        self.total += amount

    def estimate(self, key: str) -> float:
        data = key.encode()
        return min(
            row[zlib.crc32(data, salt) % self.width]
            for row, salt in zip(self._rows, self._salts)
        )

    def merge(self, other: "DenseCountMinSketch") -> None:
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise ValueError("can only merge sketches with identical shape and seed")
        for mine, theirs in zip(self._rows, other._rows):
            for index, value in enumerate(theirs):
                if value:
                    mine[index] += value
        self.total += other.total

    def reset(self) -> None:
        for row in self._rows:
            for index in range(self.width):
                row[index] = 0.0
        self.total = 0.0


#: Network methods replaced by per-receiver delivery and overhearing
PER_RECEIVER = {
    "_broadcast_batched": broadcast_per_receiver,
    "_overhear": overhear_per_monitor,
    "_schedule_overhear": schedule_overhear_per_monitor,
}
#: Network methods replaced by the brute-force neighbour scan: every
#: range question Network.transmit asks goes through one of them
BRUTE_FORCE = {
    "neighbors": brute_neighbors,
    "in_range": brute_in_range,
    "_reach": brute_reach,
    "_taps": brute_taps,
}


def patch_network(net, paths):
    """Switch one network instance to the given reference paths (other
    networks keep the production paths)."""
    for name, function in paths.items():
        setattr(net, name, MethodType(function, net))


class AodvHost:
    """A node + its AODV instance, as tests want to see them together."""

    def __init__(self, node: Node, aodv: AodvProtocol) -> None:
        self.node = node
        self.aodv = aodv

    @property
    def address(self) -> str:
        return self.node.address


def build_chain(
    count: int,
    *,
    seed: int = 1,
    spacing: float = 800.0,
    aodv_config: AodvConfig | None = None,
    channel: ChannelConfig | None = None,
) -> tuple[Simulator, Network, list[AodvHost]]:
    """A line of ``count`` AODV nodes, each reaching only its neighbours."""
    sim = Simulator(seed=seed)
    net = Network(sim, channel)
    hosts = []
    for i in range(count):
        node = Node(sim, f"n{i}", position=(i * spacing, 0.0))
        net.attach(node)
        hosts.append(AodvHost(node, AodvProtocol(node, aodv_config)))
    return sim, net, hosts


def run_discovery(sim, host: AodvHost, destination: str):
    """Run a discovery to completion and return its result."""
    results = []
    host.aodv.discover(destination, results.append)
    sim.run()
    assert results, "discovery callback never fired"
    return results[0]
