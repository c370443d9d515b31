"""The vehicle node."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

from repro.clusters.packets import JoinReply, JoinRequest, LeaveNotice
from repro.mobility.highway import Highway
from repro.net.network import BROADCAST
from repro.net.node import Node
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.authority import Enrolment, TrustedAuthority

#: Margin (m) past a boundary at which the crossing event is evaluated,
#: so float rounding never re-evaluates the vehicle inside the old cluster.
_BOUNDARY_EPSILON = 0.5


class MotionSource(Protocol):
    """Anything that can position a vehicle over time.

    ``speed_at(t)`` must bound the motion's speed until its next change,
    and every change must be made through :meth:`VehicleNode.set_speed`,
    which announces it to the network's neighbour index.
    """

    def position(self, t: float) -> tuple[float, float]: ...

    def speed_at(self, t: float) -> float: ...


class VehicleNode(Node):
    """A mobile CV node.

    Parameters
    ----------
    simulator / highway:
        Shared scenario objects.
    node_id:
        Long-term identity (never transmitted once enrolled).
    motion:
        Position source: highway or urban kinematics.
    enrolment:
        TA-issued credential; the certificate's pseudonym becomes the
        on-air address.  ``None`` runs the vehicle unauthenticated
        (plain AODV, no secure RREPs).
    authority:
        TA node for pseudonym renewal; required by
        :meth:`renew_identity`.
    """

    def __init__(
        self,
        simulator: Simulator,
        highway: Highway,
        node_id: str,
        motion: MotionSource,
        *,
        enrolment: "Enrolment | None" = None,
        authority: "TrustedAuthority | None" = None,
        transmission_range: float = 1000.0,
        aodv_config: AodvConfig | None = None,
    ) -> None:
        super().__init__(
            simulator, node_id, transmission_range=transmission_range
        )
        self.highway = highway
        self.motion = motion
        self.enrolment = enrolment
        self.authority = authority
        if enrolment is not None:
            self._address = enrolment.certificate.subject_id
        self.aodv = self._make_aodv(aodv_config)
        self.aodv.cluster_info = self._cluster_info
        #: revoked pseudonyms this vehicle has been warned about
        self.blacklist: set[str] = set()
        self.current_cluster: int | None = None
        self.current_ch: str | None = None
        self.on_cluster_change: list[Callable[[int], None]] = []
        self._crossing_event = None
        self.exited = False
        self.register_handler(JoinReply, self._on_join_reply)

    def close(self) -> None:
        """Drop the routing protocol and cluster observers as well."""
        super().close()
        self.aodv.close()
        self.aodv = None
        self.on_cluster_change.clear()

    def _make_aodv(self, config: AodvConfig | None) -> AodvProtocol:
        """AODV factory; attack subclasses swap in malicious variants."""
        return AodvProtocol(self, config, identity=self.identity)

    def _cluster_info(self) -> int:
        """AODV's cluster hook; a bound method (not a lambda) so that a
        live vehicle remains snapshot-serializable."""
        return self.current_cluster or 0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def identity(self):
        """Credential provider for secure packet signing."""
        if self.enrolment is None:
            return None
        return (self.enrolment.certificate, self.enrolment.keypair.private)

    @property
    def certificate(self):
        return self.enrolment.certificate if self.enrolment else None

    def renew_identity(self) -> bool:
        """Obtain a fresh pseudonym + certificate from the TA and re-join.

        Returns False when the TA refuses (renewals paused after a
        revocation) or no authority is configured — the attacker's
        "change identity during detection" move fails in that case.
        """
        if self.authority is None or self.enrolment is None:
            return False
        try:
            fresh = self.authority.renew(self.node_id, self.sim.now)
        except (PermissionError, KeyError):
            return False
        self._leave_current_cluster()
        self.enrolment = fresh
        self.set_address(fresh.certificate.subject_id)
        if not self.exited and self.network is not None:
            self.join_cluster()
        return True

    # ------------------------------------------------------------------
    # Mobility
    # ------------------------------------------------------------------
    @property
    def position(self) -> tuple[float, float]:
        return self.motion.position(self.sim.now)

    @property
    def speed(self) -> float:
        return self.motion.speed_at(self.sim.now)

    @property
    def direction(self) -> int:
        return 1 if self.speed >= 0 else -1

    def set_speed(self, speed: float) -> None:
        """Change speed from now on, and re-index the node on the medium:
        the neighbour index bounds each epoch's drift by the speeds it
        has seen, so a faster node must be shown to it."""
        self.motion.set_speed(self.sim.now, speed)
        if self.network is not None:
            self.network.note_moved(self)

    # ------------------------------------------------------------------
    # Cluster membership
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Join the current cluster and start tracking boundary crossings.

        Call once, after attaching to the network.
        """
        self.join_cluster()
        self._schedule_crossing()

    def join_cluster(self) -> None:
        """Broadcast a JREQ; the covering CH for our position replies."""
        x, y = self.position
        self.send(
            JoinRequest(
                src=self.address,
                dst=BROADCAST,
                speed=abs(self.speed),
                position=(x, y),
                direction=self.direction,
            )
        )

    def _on_join_reply(self, packet: JoinReply, sender: str) -> None:
        previous = self.current_cluster
        self.current_cluster = packet.cluster_index
        self.current_ch = packet.cluster_head
        if previous != packet.cluster_index:
            for observer in self.on_cluster_change:
                observer(packet.cluster_index)

    def _leave_current_cluster(self) -> None:
        if self.current_ch is not None and self.network is not None:
            self.send(LeaveNotice(src=self.address, dst=self.current_ch))
        self.current_ch = None

    def _schedule_crossing(self) -> None:
        """Arm an event for the next cluster-boundary (or highway-exit)
        crossing, assuming the current speed persists (speeds are
        constant per vehicle in the paper's scenario)."""
        if self._crossing_event is not None:
            self._crossing_event.cancel()
            self._crossing_event = None
        x, _y = self.position
        speed = self.speed
        if speed == 0:
            return
        if speed > 0:
            cluster = self.highway.cluster_index_at(min(x, self.highway.length))
            boundary = self.highway.cluster_bounds(cluster)[1] + _BOUNDARY_EPSILON
        else:
            cluster = self.highway.cluster_index_at(max(x, 0.0))
            boundary = self.highway.cluster_bounds(cluster)[0] - _BOUNDARY_EPSILON
        delay = (boundary - x) / speed
        if delay <= 0:
            return
        self._crossing_event = self.sim.schedule(
            delay,
            self._cross_boundary,
            label="crossing",
            wheel=True,
        )

    def _cross_boundary(self) -> None:
        self._crossing_event = None
        x, _y = self.position
        if not self.highway.contains_x(x):
            self.leave_highway()
            return
        self._leave_current_cluster()
        self.join_cluster()
        self._schedule_crossing()

    def leave_highway(self) -> None:
        """Exit the network entirely (drive off the simulated segment)."""
        if self.exited:
            return
        self._leave_current_cluster()
        self.exited = True
        if self._crossing_event is not None:
            self._crossing_event.cancel()
            self._crossing_event = None
        if self.network is not None:
            self.network.detach(self)
