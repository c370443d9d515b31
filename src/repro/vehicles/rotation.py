"""Periodic pseudonym rotation (privacy churn).

The paper's privacy model has the TA "renew vehicle certificates
periodically for several regions to avoid being tracked".  This service
drives that rotation on a vehicle: every ``interval`` seconds (with
jitter, so a convoy doesn't rotate in lock-step and re-identify itself)
the vehicle requests a fresh pseudonym and re-registers with its cluster
head.

Rotation interacts with everything above it — membership tables, route
caches naming the old pseudonym, and detection (a rotated suspect's old
identity vanishes) — which is exactly why the experiments exercise
detection under rotation churn.
"""

from __future__ import annotations

from repro.sim.timers import PeriodicTimer
from repro.vehicles.vehicle import VehicleNode


class PseudonymRotation:
    """Rotate a vehicle's pseudonym on a jittered period."""

    def __init__(
        self,
        vehicle: VehicleNode,
        *,
        interval: float = 120.0,
        jitter: float = 0.25,
    ) -> None:
        if interval <= 0:
            raise ValueError("rotation interval must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.vehicle = vehicle
        self.interval = interval
        self.jitter = jitter
        self.rotations = 0
        self.refused = 0
        self._rng = vehicle.sim.rng("rotation")
        self._timer = PeriodicTimer(
            vehicle.sim,
            interval,
            self._rotate,
            first_delay=self._next_delay(),
            label="rotation",
        )

    def _next_delay(self) -> float:
        spread = self.interval * self.jitter
        return self.interval + self._rng.uniform(-spread, spread)

    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.cancel()

    def _rotate(self) -> None:
        if self.vehicle.exited or self.vehicle.network is None:
            self._timer.cancel()
            return
        if self.vehicle.renew_identity():
            self.rotations += 1
        else:
            # The TA refused — either no authority, or this vehicle has
            # been revoked; a revoked vehicle stays on its dying identity.
            self.refused += 1
        self._timer.interval = self._next_delay()
