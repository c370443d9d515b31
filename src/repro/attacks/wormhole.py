"""Wormhole attacker pair: an out-of-band tunnel that shortcuts routing.

Two colluding vehicles — an *entry* endpoint near the victim traffic and
an *exit* endpoint parked near the destination — share a private channel
the radio medium never sees.  When the entry overhears a route request,
it asks its exit peer (over the tunnel) whether the requested
destination is a radio neighbour of the exit.  If so, the entry answers
with a plausible low-hop route: a sequence number only marginally above
the requested one and a one-hop count, exactly what a genuinely adjacent
node would claim.  Data committed to the route is then swallowed at the
entry endpoint.

The wormhole is the structural counter-example to sequence-number
defences *and* to BlackDP's fake-destination probe:

- its replies carry modest sequence numbers, so threshold and
  first-reply-outlier baselines see nothing anomalous;
- the examiner's probe names a destination that does not exist, the
  exit endpoint cannot confirm it, and the entry stays silent — the
  two-probe protocol records a clean (or fled) suspect.

What does expose it is topology: a DRI-style cross-check notices a
cluster member claiming one-hop adjacency to a vehicle no local or
adjacent cluster has ever admitted (see
``repro.arena.adapters.DriCrossCheckAdapter``), and watchdog-style
forwarding observation sees the committed data vanish at the entry.
"""

from __future__ import annotations

from repro.mobility.highway import Highway
from repro.net.node import Node
from repro.routing.packets import UNKNOWN_SEQ, DataPacket, RouteRequest
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim.simulator import Simulator
from repro.vehicles.vehicle import VehicleNode

#: Margin added over the requested sequence number.  Two, not one: the
#: genuine destination replies with ``requested + 1`` at hop 0, and ties
#: break towards the lower hop count — the tunnel claim must win route
#: selection while staying far below every threshold baseline.
TUNNEL_SEQ_MARGIN = 2

#: One-way latency of the out-of-band link (seconds).  The entry replies
#: after a full round trip, which still beats the multi-hop RREP from
#: the real destination.
TUNNEL_DELAY = 0.002


class WormholeAodv(AodvProtocol):
    """AODV engine of the wormhole *entry* endpoint.

    The exit endpoint runs honest AODV; all malice lives at the entry,
    which consults ``node.peer`` (the exit vehicle) out of band.
    """

    def __init__(
        self,
        node: Node,
        config: AodvConfig | None = None,
        *,
        identity=None,
    ) -> None:
        super().__init__(node, config, identity=identity)
        self.tunnel_claims = 0
        self.tunnel_misses = 0
        self.data_dropped = 0

    def _answer_rreq(self, packet: RouteRequest, sender: str) -> None:
        peer = getattr(self.node, "peer", None)
        if (
            peer is None
            or peer.exited
            or peer.network is None
            or packet.destination == self.address
        ):
            super()._answer_rreq(packet, sender)
            return
        if not _sees(peer, packet.destination):
            # The exit cannot confirm the destination — which is exactly
            # what happens for the examiner's fabricated probe targets.
            # Stay honest (rebroadcast) so nothing looks off.
            self.tunnel_misses += 1
            super()._answer_rreq(packet, sender)
            return
        self.tunnel_claims += 1
        requested = 0 if packet.destination_seq == UNKNOWN_SEQ else packet.destination_seq
        self.sim.schedule(
            2 * TUNNEL_DELAY,
            self._send_tunnel_reply,
            args=(sender, packet.originator, packet.destination,
                  requested + TUNNEL_SEQ_MARGIN),
            label="wormhole tunnel",
            wheel=True,
        )

    def _send_tunnel_reply(
        self, to: str, originator: str, destination: str, destination_seq: int
    ) -> None:
        if self.node.exited or self.node.network is None:
            return
        self._send_rrep(
            to=to,
            originator=originator,
            destination=destination,
            destination_seq=destination_seq,
            hop_count=1,
        )

    def _accept_data(self, packet: DataPacket, sender: str) -> bool:
        self.data_dropped += 1
        return False


class WormholeVehicle(VehicleNode):
    """One endpoint of a wormhole pair.

    Only the endpoint constructed with ``entry=True`` runs the malicious
    AODV; the exit is an honest vehicle whose sole job is answering
    tunnel lookups.  Link the two with :func:`make_wormhole_pair` (or by
    assigning ``peer`` on both).
    """

    def __init__(
        self,
        simulator: Simulator,
        highway: Highway,
        node_id: str,
        motion,
        *,
        entry: bool = True,
        enrolment=None,
        authority=None,
        transmission_range: float = 1000.0,
        aodv_config: AodvConfig | None = None,
    ) -> None:
        self._entry = entry
        super().__init__(
            simulator,
            highway,
            node_id,
            motion,
            enrolment=enrolment,
            authority=authority,
            transmission_range=transmission_range,
            aodv_config=aodv_config,
        )
        #: the colluding endpoint on the other side of the tunnel
        self.peer: WormholeVehicle | None = None

    def close(self) -> None:
        """Drop the link to the other endpoint as well."""
        super().close()
        self.peer = None

    def _make_aodv(self, config: AodvConfig | None):
        if self._entry:
            return WormholeAodv(self, config, identity=self.identity)
        return super()._make_aodv(config)


def _sees(exit_node: WormholeVehicle, address: str) -> bool:
    """Tunnel lookup: is ``address`` a radio neighbour of the exit?

    Deterministic and RNG-free — it reads the same neighbour oracle the
    medium itself uses, modelling the exit endpoint's own secure
    neighbour discovery.
    """
    network = exit_node.network
    if network is None:
        return False
    return any(
        neighbor.address == address for neighbor in network.neighbors(exit_node)
    )


def make_wormhole_pair(
    simulator: Simulator,
    highway: Highway,
    *,
    entry_id: str = "wormhole-entry",
    exit_id: str = "wormhole-exit",
    entry_x: float,
    exit_x: float,
    speed: float = 0.0,
    lane_y: float = 75.0,
    enroll=None,
    authority=None,
    transmission_range: float = 1000.0,
) -> "tuple[WormholeVehicle, WormholeVehicle]":
    """Build a linked (entry, exit) wormhole pair (not yet attached)."""
    from repro.mobility import VehicleMotion

    def _build(node_id: str, x: float, entry: bool) -> WormholeVehicle:
        return WormholeVehicle(
            simulator,
            highway,
            node_id,
            VehicleMotion(
                entry_time=simulator.now, entry_x=x, speed=speed, lane_y=lane_y
            ),
            entry=entry,
            enrolment=enroll(node_id) if enroll is not None else None,
            authority=authority,
            transmission_range=transmission_range,
        )

    entry = _build(entry_id, entry_x, True)
    exit_ = _build(exit_id, exit_x, False)
    entry.peer = exit_
    exit_.peer = entry
    return entry, exit_
