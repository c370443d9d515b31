"""BlackDP protocol packets.

Everything the two phases exchange: authenticated Hello probes, the
detection request/forward/result triple, and the isolation-phase
revocation notices and member warnings.

Layering contract (see :mod:`repro.net.packets`): this module owns the
detection-layer packet *definitions* only.  Wire field order is defined
once, in the codec registry (:mod:`repro.net.codec`) — changing or
adding a field here requires updating the matching encoder/decoder
there, and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.net.packets import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.certificates import Certificate
    from repro.crypto.revocation import RevocationEntry

#: Detection verdicts.
VERDICT_BLACK_HOLE = "black-hole"
VERDICT_CLEAN = "clean"
VERDICT_FLED = "fled"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(slots=True)
class SecureHello(Packet):
    """Authenticated Hello the originator pushes towards the destination
    through the route under verification.  Honest intermediates forward
    it; an attacker "cannot forward the packet ... because it does not
    have a route" — the silence is the signal."""

    originator: str = ""
    target: str = ""
    nonce: int = 0
    certificate: "Certificate | None" = field(default=None, repr=False)
    signature: bytes | None = field(default=None, repr=False)

    def signed_payload(self) -> bytes:
        return f"hello-v1|{self.originator}|{self.target}|{self.nonce}".encode()


@dataclass(slots=True)
class HelloReply(Packet):
    """The destination's authenticated answer, routed back hop-by-hop."""

    originator: str = ""  # the Hello's originator (final recipient)
    responder: str = ""
    nonce: int = 0
    certificate: "Certificate | None" = field(default=None, repr=False)
    signature: bytes | None = field(default=None, repr=False)

    def signed_payload(self) -> bytes:
        return f"hello-re-v1|{self.originator}|{self.responder}|{self.nonce}".encode()


@dataclass(slots=True)
class DetectionRequest(Packet):
    """``d_req = <v_i, v_i^cy, v_B, v_B^cy>`` plus the suspicious RREP's
    certificate ("selective information from the suspicious RREP") so the
    CH can revoke it on conviction."""

    reporter: str = ""
    reporter_cluster: int = 0
    suspect: str = ""
    suspect_cluster: int = 0
    suspect_certificate: "Certificate | None" = field(default=None, repr=False)


@dataclass(slots=True)
class DetectionForward(Packet):
    """CH-to-CH hand-off of a detection case over the wired backbone.

    Used both to route a fresh ``d_req`` to the suspect's cluster and to
    continue a part-finished probe after the suspect fled; ``phase`` and
    ``rrep1_seq`` carry the probe state, ``packets_so_far`` keeps the
    Figure 5 accounting continuous across CHs.
    """

    reporter: str = ""
    reporter_cluster: int = 0
    suspect: str = ""
    suspect_cluster: int = 0
    suspect_certificate: "Certificate | None" = field(default=None, repr=False)
    phase: str = "probe1"
    rrep1_seq: int | None = None
    packets_so_far: int = 0
    packet_breakdown: list[str] = field(default_factory=list)
    forwards_used: int = 0
    direction: int = 1


@dataclass(slots=True)
class DetectionResult(Packet):
    """The CH's verdict, returned to the reporting vehicle (relayed via
    the reporter's own CH when it lives in a different cluster)."""

    reporter: str = ""
    suspect: str = ""
    verdict: str = VERDICT_INCONCLUSIVE
    cooperative_with: list[str] = field(default_factory=list)
    #: True when this copy travels CH-to-CH and must be relayed by radio.
    relay: bool = False


@dataclass(slots=True)
class RevocationNoticePacket(Packet):
    """Isolation phase: revoked-certificate entries pushed to adjacent
    cluster heads (id, serial and expiration time per entry)."""

    entries: list["RevocationEntry"] = field(default_factory=list)
    #: how many further CH-to-CH hops this notice should travel
    hops_remaining: int = 1


@dataclass(slots=True)
class MemberWarning(Packet):
    """CH-to-members warning listing revoked pseudonyms to blacklist."""

    revoked_ids: list[str] = field(default_factory=list)
