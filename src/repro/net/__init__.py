"""Wireless network substrate: packets, nodes, the radio channel and the
wired RSU backbone.

The paper's evaluation depends on connectivity (DSRC unit-disk radios
with a 1000 m range), not on PHY-layer detail, so the channel model is a
unit disk with per-hop latency and an optional loss probability.  RSUs
additionally talk over a wired backbone ("RSUs are stationary devices
that connect to each other via high speed links").

Public API
----------
- :class:`~repro.net.packets.Packet` -- base class for all messages.
- :class:`~repro.net.node.Node` -- base class for vehicles and RSUs.
- :class:`~repro.net.network.Network` -- the radio medium + backbone.
- :class:`~repro.net.spatial.SpatialIndex` -- uniform-grid neighbour
  index serving every neighbour query and the broadcast hot path.
- :mod:`~repro.net.codec` -- the versioned binary wire format behind
  byte accounting (``ChannelConfig.account_bytes``).
"""

from repro.net.network import BROADCAST, ChannelConfig, Network, NetworkStats
from repro.net.node import Node
from repro.net.packets import Packet
from repro.net.spatial import SpatialIndex

__all__ = [
    "BROADCAST",
    "ChannelConfig",
    "Network",
    "NetworkStats",
    "Node",
    "Packet",
    "SpatialIndex",
]
