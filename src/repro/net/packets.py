"""Packet base class.

Every message in the simulation — AODV control packets, cluster join
packets, BlackDP detection packets, data payloads — subclasses
:class:`Packet`.  Packets carry the *pseudonymous* sender/receiver ids
used on the air; long-term node identities never appear in packets.

Layering contract
-----------------
Packet *definitions* live with the layer that owns them — this module
holds only the transport-level base class; :mod:`repro.routing.packets`
owns the AODV control packets, :mod:`repro.clusters.packets` the
cluster-management packets, and :mod:`repro.core.packets` the BlackDP
detection packets.  None of them defines wire layout: field *order on
the wire* has a single source of truth, the codec registry in
:mod:`repro.net.codec`.  Adding a packet type
means defining the dataclass in its owning layer and registering an
encoder/decoder pair in the codec — never duplicating field lists.

All packet dataclasses use ``slots=True``: instances are created per
transmission on the hot path, and slots cut both the per-instance
footprint and the attribute-access cost.  Ad-hoc attributes therefore
cannot be attached to packets; per-instance memos must be declared
fields (see ``_wire_size``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """Base class for all simulated messages.

    Attributes
    ----------
    src:
        Pseudonymous id of the original sender.
    dst:
        Pseudonymous id of the intended receiver, or
        :data:`repro.net.network.BROADCAST`.
    uid:
        Globally unique packet instance id (diagnostics, dedup in tests).
    size_bytes:
        Nominal size used by overhead accounting.
    """

    src: str
    dst: str
    uid: int = field(default_factory=lambda: next(_packet_ids))
    size_bytes: int = 64
    #: memoised true wire size (:func:`repro.net.codec.wire_size`);
    #: declared because slots forbid ad-hoc attributes
    _wire_size: int | None = field(
        default=None, init=False, repr=False, compare=False
    )

    #: Short packet-type name used in logs and counters.  A plain class
    #: attribute (stamped per subclass below), not a property: it is read
    #: on every transmit, delivery counter and event label, where a
    #: descriptor call would be measurable.
    kind: ClassVar[str] = "Packet"

    def __init_subclass__(cls, **kwargs) -> None:
        # No zero-arg super() here: ``dataclass(slots=True)`` recreates
        # every subclass, leaving the implicit __class__ cell pointing at
        # the pre-slots original, which makes super() raise.  The packet
        # hierarchy uses no class keywords, so there is nothing to chain.
        if kwargs:  # pragma: no cover - defensive
            raise TypeError(f"unexpected class keywords: {sorted(kwargs)}")
        cls.kind = cls.__name__

    def describe(self) -> str:
        """One-line rendering for traces."""
        return f"{self.kind}#{self.uid} {self.src}->{self.dst}"
