"""AODV control and data packets.

Field names follow Perkins & Royer.  ``RouteReply`` carries the optional
security envelope the paper adds (certificate + signature of the
replier), making it a *secure RREP*; plain AODV simply leaves those
fields unset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.net.packets import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.certificates import Certificate

#: Destination-sequence value meaning "unknown" in an RREQ.
UNKNOWN_SEQ = -1


@dataclass(slots=True)
class RouteRequest(Packet):
    """RREQ — broadcast route discovery.

    ``src``/``dst`` are the per-hop addresses (dst is broadcast);
    ``originator`` and ``destination`` are the route's endpoints.
    """

    originator: str = ""
    originator_seq: int = 0
    destination: str = ""
    destination_seq: int = UNKNOWN_SEQ
    hop_count: int = 0
    rreq_id: int = 0
    #: BlackDP probe extension: ask the replier to disclose its next hop
    #: towards the destination (paper's RREQ_2 "inquiry about the next hop").
    request_next_hop: bool = False
    #: BlackDP teammate-verification extension: the claim being checked
    #: ("node X says it routes to the destination through you").
    claim_check: str | None = None


@dataclass(slots=True)
class RouteReply(Packet):
    """RREP — unicast back along the reverse path.

    ``replied_by`` is the address of the node that *generated* the reply
    (destination or intermediate), which the originator needs for
    BlackDP's source/destination verification.  ``certificate`` and
    ``signature`` form the secure envelope; :func:`signed_payload` is the
    byte string the signature covers.
    """

    originator: str = ""
    destination: str = ""
    destination_seq: int = 0
    hop_count: int = 0
    lifetime: float = 0.0
    replied_by: str = ""
    #: Response to ``request_next_hop``: who the replier claims to route
    #: through (a cooperative attacker names its teammate here).
    next_hop_claim: str | None = None
    #: The replier's current cluster (paper: the JREP's "cluster head
    #: identity to be included in the packets to allow other nodes know
    #: where the packets come from").  0 when unknown/unjoined.
    cluster_of_replier: int = 0
    certificate: "Certificate | None" = field(default=None, repr=False)
    signature: bytes | None = field(default=None, repr=False)

    def signed_payload(self) -> bytes:
        """Canonical bytes covered by the secure-RREP signature.

        Covers the non-mutable fields; ``hop_count`` is mutable in
        transit (incremented per hop) so it is excluded, exactly like
        HMAC-based AODV authentication schemes do.
        """
        return "|".join(
            [
                "rrep-v1",
                self.originator,
                self.destination,
                str(self.destination_seq),
                self.replied_by,
                self.next_hop_claim or "",
            ]
        ).encode()

    @property
    def is_secure(self) -> bool:
        """True when the reply carries the certificate + signature envelope."""
        return self.certificate is not None and self.signature is not None


@dataclass(slots=True)
class RouteError(Packet):
    """RERR — reports destinations now unreachable through the sender."""

    unreachable: list[tuple[str, int]] = field(default_factory=list)


@dataclass(slots=True)
class HelloBeacon(Packet):
    """Periodic 1-hop connectivity beacon (AODV route maintenance)."""

    originator: str = ""
    originator_seq: int = 0


@dataclass(slots=True)
class DataPacket(Packet):
    """Application payload, forwarded hop-by-hop along discovered routes."""

    originator: str = ""
    final_destination: str = ""
    payload: Any = None
    hops_travelled: int = 0
