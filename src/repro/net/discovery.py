"""Secure neighbour discovery (SND).

The paper assumes "nodes can perform secure neighbor discovery by mutual
authentication when two nodes are within the transmission range of each
other", with the discovery layer "mainly concerned about immediate node
verification by validating their positions, speeds and identities".
This module implements that layer:

- nodes broadcast signed :class:`NeighborBeacon` packets carrying their
  claimed position and speed under their certificate,
- receivers verify the certificate chain and signature, then apply the
  physical-plausibility checks the paper names: the claimed position
  must be hearable (within radio range of the receiver), the claimed
  speed must be physically possible, and successive claims must not
  teleport,
- surviving claims populate an authenticated-neighbour table with
  freshness expiry.

Rejection reasons are counted, so experiments can attribute what each
check catches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.crypto.keys import PublicKey, sign, verify
from repro.net.network import BROADCAST
from repro.net.node import Node
from repro.net.packets import Packet
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.certificates import Certificate

#: Physical ceiling for claimed speeds (m/s); ~250 km/h.
DEFAULT_MAX_SPEED = 70.0


@dataclass(slots=True)
class NeighborBeacon(Packet):
    """Signed one-hop presence announcement."""

    claimed_position: tuple[float, float] = (0.0, 0.0)
    claimed_speed: float = 0.0
    beacon_seq: int = 0
    certificate: "Certificate | None" = field(default=None, repr=False)
    signature: bytes | None = field(default=None, repr=False)

    def signed_payload(self) -> bytes:
        x, y = self.claimed_position
        return (
            f"snd-v1|{self.src}|{x!r}|{y!r}|{self.claimed_speed!r}|"
            f"{self.beacon_seq}".encode()
        )


@dataclass
class NeighborRecord:
    """One authenticated neighbour."""

    address: str
    last_seen: float
    position: tuple[float, float]
    speed: float
    beacon_seq: int


@dataclass
class SndStats:
    accepted: int = 0
    rejected_unsigned: int = 0
    rejected_certificate: int = 0
    rejected_signature: int = 0
    rejected_position: int = 0
    rejected_speed: int = 0
    rejected_teleport: int = 0
    rejected_replay: int = 0
    rejected_revoked: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.rejected_unsigned
            + self.rejected_certificate
            + self.rejected_signature
            + self.rejected_position
            + self.rejected_speed
            + self.rejected_teleport
            + self.rejected_replay
            + self.rejected_revoked
        )


class SecureNeighborDiscovery:
    """Attach SND beaconing and verification to a node.

    Parameters
    ----------
    node:
        The participating node (vehicle or RSU).
    authority_key:
        ``K_TA+`` used to validate neighbour certificates.
    identity:
        Provider of this node's (certificate, private key); ``None``
        makes the node listen-only (it authenticates others but cannot
        be authenticated itself).
    interval:
        Beacon period in seconds.
    max_speed:
        Claimed speeds above this are rejected.
    position_tolerance:
        Slack (m) added to range/teleport checks for mobility between
        beacon emission and receipt.
    is_revoked:
        Optional predicate over sender addresses (wired to a blacklist
        or CRL); revoked senders are rejected outright.
    """

    def __init__(
        self,
        node: Node,
        authority_key: PublicKey,
        *,
        identity=None,
        interval: float = 1.0,
        max_speed: float = DEFAULT_MAX_SPEED,
        position_tolerance: float = 50.0,
        expiry_intervals: int = 3,
        is_revoked: Callable[[str], bool] | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("beacon interval must be positive")
        self.node = node
        self.authority_key = authority_key
        self.identity = identity
        self.interval = interval
        self.max_speed = max_speed
        self.position_tolerance = position_tolerance
        self.expiry = interval * expiry_intervals
        self.is_revoked = is_revoked
        self.neighbors: dict[str, NeighborRecord] = {}
        self.stats = SndStats()
        self._beacon_seq = 0
        self._timer = PeriodicTimer(
            node.sim, interval, self._tick, first_delay=0.0,
            label="snd",
        )
        node.register_handler(NeighborBeacon, self._on_beacon)

    # ------------------------------------------------------------------
    # Beaconing
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._timer.start()

    def stop(self) -> None:
        self._timer.cancel()

    def _tick(self) -> None:
        self._expire()
        self._broadcast_beacon()

    def _broadcast_beacon(self) -> None:
        if self.node.network is None:
            return
        self._beacon_seq += 1
        x, y = self.node.position
        speed = getattr(self.node, "speed", 0.0)
        beacon = NeighborBeacon(
            src=self.node.address,
            dst=BROADCAST,
            claimed_position=(x, y),
            claimed_speed=abs(speed),
            beacon_seq=self._beacon_seq,
        )
        if self.identity is not None:
            credential = self.identity()
            if credential is not None:
                certificate, private_key = credential
                beacon.certificate = certificate
                beacon.signature = sign(private_key, beacon.signed_payload())
        self.node.send(beacon)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def _on_beacon(self, packet: NeighborBeacon, sender: str) -> None:
        now = self.node.sim.now
        if self.is_revoked is not None and self.is_revoked(sender):
            self.stats.rejected_revoked += 1
            return
        if packet.certificate is None or packet.signature is None:
            self.stats.rejected_unsigned += 1
            return
        certificate = packet.certificate
        if certificate.subject_id != sender or not certificate.verify_with(
            self.authority_key, now
        ):
            self.stats.rejected_certificate += 1
            return
        if not verify(
            certificate.public_key, packet.signed_payload(), packet.signature
        ):
            self.stats.rejected_signature += 1
            return
        if not self._position_plausible(packet.claimed_position):
            self.stats.rejected_position += 1
            return
        if packet.claimed_speed > self.max_speed:
            self.stats.rejected_speed += 1
            return
        previous = self.neighbors.get(sender)
        if previous is not None:
            if packet.beacon_seq <= previous.beacon_seq:
                self.stats.rejected_replay += 1
                return
            if not self._motion_plausible(previous, packet, now):
                self.stats.rejected_teleport += 1
                return
        self.stats.accepted += 1
        self.neighbors[sender] = NeighborRecord(
            address=sender,
            last_seen=now,
            position=packet.claimed_position,
            speed=packet.claimed_speed,
            beacon_seq=packet.beacon_seq,
        )

    def _position_plausible(self, claimed: tuple[float, float]) -> bool:
        """A hearable sender must be within radio range; a claim outside
        our own footprint (plus slack) is a position lie."""
        mx, my = self.node.position
        distance = ((claimed[0] - mx) ** 2 + (claimed[1] - my) ** 2) ** 0.5
        return distance <= self.node.transmission_range + self.position_tolerance

    def _motion_plausible(
        self, previous: NeighborRecord, packet: NeighborBeacon, now: float
    ) -> bool:
        """Successive claims must be reachable at physical speeds."""
        dt = max(now - previous.last_seen, 1e-9)
        px, py = previous.position
        cx, cy = packet.claimed_position
        travelled = ((cx - px) ** 2 + (cy - py) ** 2) ** 0.5
        return travelled <= self.max_speed * dt + self.position_tolerance

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------
    def _expire(self) -> None:
        deadline = self.node.sim.now - self.expiry
        stale = [a for a, r in self.neighbors.items() if r.last_seen < deadline]
        for address in stale:
            del self.neighbors[address]

    def install_gate(self) -> None:
        """Admit only authenticated neighbours into the protocol stack.

        SND's own beacons always pass (they *are* the authentication),
        as do packets relayed over the wired backbone (the transport is
        trusted infrastructure, not a radio neighbour).
        """

        def gate(packet, sender: str) -> bool:
            if isinstance(packet, NeighborBeacon):
                return True
            return self.is_authenticated(sender)

        self.node.gate = gate

    def remove_gate(self) -> None:
        self.node.gate = None

    def is_authenticated(self, address: str) -> bool:
        """True when ``address`` currently holds a fresh, verified claim."""
        record = self.neighbors.get(address)
        return (
            record is not None
            and record.last_seen >= self.node.sim.now - self.expiry
        )

    def authenticated_neighbors(self) -> list[NeighborRecord]:
        self._expire()
        return sorted(self.neighbors.values(), key=lambda r: r.address)
