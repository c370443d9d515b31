"""RSU cluster heads.

An RSU is a stationary, trusted node at the centre of its cluster.  It
admits joining vehicles, tracks membership (its "routing table" for
detection purposes), keeps a history of departed members, and talks to
adjacent RSUs over the wired backbone.  BlackDP's detection service
(:mod:`repro.core`) attaches on top of this class.
"""

from __future__ import annotations

from typing import Callable

from repro.mobility.highway import Highway
from repro.net.node import Node
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim.simulator import Simulator

from repro.clusters.membership import MemberRecord, MembershipTable
from repro.clusters.packets import JoinReply, JoinRequest, LeaveNotice


class RsuNode(Node):
    """A cluster head stationed at the centre of cluster ``cluster_index``.

    Parameters
    ----------
    simulator / highway:
        Shared scenario objects.
    cluster_index:
        1-based cluster this RSU heads.
    transmission_range:
        Radio range; the Table I default of 1000 m covers the whole
        1000 m cluster from its centre.
    aodv_config:
        Configuration for the RSU's AODV instance (RSUs participate in
        routing as fixed infrastructure).
    """

    def __init__(
        self,
        simulator: Simulator,
        highway: Highway | None,
        cluster_index: int,
        *,
        transmission_range: float = 1000.0,
        aodv_config: AodvConfig | None = None,
        coverage=None,
    ) -> None:
        if coverage is None:
            if highway is None:
                raise ValueError("RsuNode needs a highway or a coverage")
            from repro.clusters.coverage import HighwayCoverage

            coverage = HighwayCoverage(highway)
        super().__init__(
            simulator,
            node_id=f"rsu-{cluster_index}",
            position=coverage.rsu_position(cluster_index),
            transmission_range=transmission_range,
        )
        self.highway = highway
        self.coverage = coverage
        self.cluster_index = cluster_index
        self.membership = MembershipTable()
        if aodv_config is None:
            # Infrastructure default: forward floods and data, but never
            # vouch for cached routes (see AodvConfig.intermediate_replies).
            aodv_config = AodvConfig(intermediate_replies=False)
        self.aodv = AodvProtocol(self, aodv_config)
        #: adjacent cluster heads (wired neighbours), set by the builder
        self.neighbor_rsus: list["RsuNode"] = []
        #: observers fired on membership changes (join/leave address)
        self.on_member_join: list[Callable[[str], None]] = []
        self.on_member_leave: list[Callable[[str], None]] = []
        self.register_handler(JoinRequest, self._on_join_request)
        self.register_handler(LeaveNotice, self._on_leave_notice)

    def close(self) -> None:
        """Drop the routing protocol, wired neighbours and membership
        observers as well."""
        super().close()
        self.aodv.close()
        self.aodv = None
        self.neighbor_rsus.clear()
        self.on_member_join.clear()
        self.on_member_leave.clear()

    # ------------------------------------------------------------------
    # Join / leave
    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """How many clusters the deployment has (from the coverage)."""
        return self.coverage.num_clusters

    def covers(self, position: tuple[float, float]) -> bool:
        """True when ``position`` lies inside this RSU's cluster."""
        return self.coverage.cluster_at(position) == self.cluster_index

    def _on_join_request(self, packet: JoinRequest, sender: str) -> None:
        """Admit the vehicle iff it is in *this* cluster.

        In an overlapped zone several RSUs hear the broadcast JREQ; the
        position field lets the appropriate CH identify the newcomer and
        reply, exactly as the paper describes.
        """
        if not self.covers(packet.position):
            return
        self.membership.join(
            MemberRecord(
                address=sender,
                joined_at=self.sim.now,
                speed=packet.speed,
                position=packet.position,
                direction=packet.direction,
            )
        )
        self.send(
            JoinReply(
                src=self.address,
                dst=sender,
                cluster_head=self.address,
                cluster_index=self.cluster_index,
            )
        )
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("clusters.joins", cluster=self.cluster_index).inc()
            obs.metrics.gauge("clusters.members", cluster=self.cluster_index).set(
                len(self.membership)
            )
        if obs.trace is not None:
            obs.trace.emit(self.node_id, "cluster.join", detail=sender)
        for observer in self.on_member_join:
            observer(sender)

    def _on_leave_notice(self, packet: LeaveNotice, sender: str) -> None:
        record = self.membership.leave(sender, self.sim.now)
        if record is not None:
            obs = self.sim.obs
            if obs.metrics is not None:
                obs.metrics.counter(
                    "clusters.leaves", cluster=self.cluster_index
                ).inc()
                obs.metrics.gauge(
                    "clusters.members", cluster=self.cluster_index
                ).set(len(self.membership))
            if obs.trace is not None:
                obs.trace.emit(self.node_id, "cluster.leave", detail=sender)
            for observer in self.on_member_leave:
                observer(sender)

    # ------------------------------------------------------------------
    # Backbone messaging
    # ------------------------------------------------------------------
    def send_backbone(self, packet) -> bool:
        """Send to another RSU over the wired backbone."""
        if self.network is None:
            raise RuntimeError(f"{self.node_id} is not attached to a network")
        return self.network.transmit_backbone(self, packet)

    def neighbor_addresses(self) -> list[str]:
        return [rsu.address for rsu in self.neighbor_rsus]
