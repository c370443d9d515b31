"""Urban vehicle: grid mobility + periodic cluster re-join.

On a street grid there is no single boundary coordinate to schedule a
crossing event against, so the urban vehicle re-evaluates its cluster on
a fixed cadence: it broadcasts a fresh JREQ, and when the answering
cluster head differs from the current one it notifies the old CH with a
leave notice.
"""

from __future__ import annotations

from repro.clusters.packets import JoinReply, LeaveNotice
from repro.mobility.urban import UrbanGrid
from repro.routing.protocol import AodvConfig
from repro.sim.simulator import Simulator
from repro.sim.timers import PeriodicTimer
from repro.vehicles.vehicle import VehicleNode


class UrbanVehicleNode(VehicleNode):
    """A vehicle driving a Manhattan grid.

    Parameters match :class:`~repro.vehicles.vehicle.VehicleNode` except
    that an :class:`~repro.mobility.urban.UrbanGrid` replaces the
    highway and ``rejoin_interval`` controls the membership cadence.
    """

    def __init__(
        self,
        simulator: Simulator,
        grid: UrbanGrid,
        node_id: str,
        motion,
        *,
        enrolment=None,
        authority=None,
        transmission_range: float = 1000.0,
        aodv_config: AodvConfig | None = None,
        rejoin_interval: float = 2.0,
    ) -> None:
        super().__init__(
            simulator,
            highway=None,
            node_id=node_id,
            motion=motion,
            enrolment=enrolment,
            authority=authority,
            transmission_range=transmission_range,
            aodv_config=aodv_config,
        )
        self.grid = grid
        if rejoin_interval <= 0:
            raise ValueError("rejoin_interval must be positive")
        self._rejoin_timer = PeriodicTimer(
            simulator, rejoin_interval, self._rejoin_tick, label="rejoin"
        )

    # ------------------------------------------------------------------
    # Membership by periodic re-join instead of boundary events
    # ------------------------------------------------------------------
    def _schedule_crossing(self) -> None:
        self._rejoin_timer.start()

    def _cross_boundary(self) -> None:  # pragma: no cover - unused path
        raise NotImplementedError("urban vehicles re-join periodically")

    def _rejoin_tick(self) -> None:
        if self.exited or self.network is None:
            self._rejoin_timer.cancel()
            return
        if not self.grid.contains(self.position):
            self.leave_highway()
            self._rejoin_timer.cancel()
            return
        self.join_cluster()

    def _on_join_reply(self, packet: JoinReply, sender: str) -> None:
        previous_ch = self.current_ch
        if previous_ch is not None and previous_ch != packet.cluster_head:
            self.send(LeaveNotice(src=self.address, dst=previous_ch))
        super()._on_join_reply(packet, sender)

    def leave_highway(self) -> None:
        self._rejoin_timer.cancel()
        super().leave_highway()
