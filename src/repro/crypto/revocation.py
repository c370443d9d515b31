"""Certificate revocation lists.

The paper's isolation phase distributes revocation notices carrying "the
latest id (temporary pseudonyms identification), serial number, and
expiration time of the attacker's certificate", and requires every
cluster head to store them "until the revoked certificate would have
expired normally" and then prune them to bound storage overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class RevocationEntry:
    """One revoked certificate, as carried in a revocation notice."""

    subject_id: str
    serial: int
    expires_at: float
    reason: str = "black-hole"


class RevocationList:
    """A prunable set of revoked certificates keyed by serial number.

    >>> crl = RevocationList()
    >>> crl.add(RevocationEntry("veh-9", serial=4, expires_at=100.0))
    True
    >>> crl.is_revoked_serial(4)
    True
    >>> crl.prune_expired(now=150.0)
    1
    >>> crl.is_revoked_serial(4)
    False
    """

    def __init__(self) -> None:
        self._by_serial: dict[int, RevocationEntry] = {}
        self._serials_by_id: dict[str, set[int]] = {}

    def __len__(self) -> int:
        return len(self._by_serial)

    def __iter__(self) -> Iterator[RevocationEntry]:
        return iter(self._by_serial.values())

    def add(self, entry: RevocationEntry) -> bool:
        """Insert an entry; returns False if the serial was already listed."""
        if entry.serial in self._by_serial:
            return False
        self._by_serial[entry.serial] = entry
        self._serials_by_id.setdefault(entry.subject_id, set()).add(entry.serial)
        return True

    def is_revoked_serial(self, serial: int) -> bool:
        """True if the certificate with this serial has been revoked."""
        return serial in self._by_serial

    def is_revoked_id(self, subject_id: str) -> bool:
        """True if any certificate of this pseudonym has been revoked."""
        return bool(self._serials_by_id.get(subject_id))

    def merge(self, other: "RevocationList | list[RevocationEntry]") -> int:
        """Absorb entries from a received notice; returns how many were new."""
        added = 0
        for entry in other:
            if self.add(entry):
                added += 1
        return added

    def prune_expired(self, now: float) -> int:
        """Drop entries whose certificate would have expired by ``now``.

        Returns the number pruned.  Mirrors the paper's storage-overhead
        rule: expired revocations need not be remembered because the
        certificate itself is no longer acceptable.
        """
        stale = [s for s, e in self._by_serial.items() if e.expires_at <= now]
        for serial in stale:
            entry = self._by_serial.pop(serial)
            serials = self._serials_by_id.get(entry.subject_id)
            if serials is not None:
                serials.discard(serial)
                if not serials:
                    del self._serials_by_id[entry.subject_id]
        return len(stale)
