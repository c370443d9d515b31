"""Infrastructure watchdog: closing the stealth-gray-hole gap (extension).

BlackDP's probes convict *routing-layer* violations; a stealth gray hole
that routes honestly and only drops data in transit never commits one.
The paper's trust argument still applies though: peer watchdogs are
unreliable (votes can be polluted, churn launders reputation), but the
*cluster head* is a trusted observer whose radio footprint covers its
entire cluster.  This module puts the watchdog on the RSU:

- the RSU listens promiscuously (``Network.add_monitor``) and records
  every data packet addressed to a member as a *forwarding obligation*
  (the member is a transit hop, not the final destination),
- an obligation is discharged when the member is overheard transmitting
  the corresponding packet onward within a grace window,
- members whose discharge ratio drops below a threshold — with a
  minimum sample size, so a single collision cannot convict — are
  reported to the detection service as forwarding violators and
  isolated exactly like black holes (verdict ``gray-hole``).

Because only the trusted CH observes and decides, the peer-voting
failure modes (§V-C) never arise; and because the evidence is the
member's own observed behaviour, honest forwarders cannot be framed.

Ledger semantics (see docs/sketch-detection.md): obligations are
tracked *by identity* — each is settled exactly once, either as
forwarded (the onward copy was overheard in time) or as dropped (its
grace timer fired first) — so ``forwarded + dropped`` can never exceed
``observed``.  Duplicate broadcast copies of the same hand-off heard in
the same instant collapse into a single obligation: the member received
one packet and owes one onward transmission, not one per radio copy.
A stopped watchdog neutralizes its armed grace timers; it can no
longer mark drops or convict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.routing.packets import DataPacket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.examiner import DetectionService

#: Verdict string for forwarding-plane convictions.
VERDICT_GRAY_HOLE = "gray-hole"


@dataclass(eq=False)
class _Obligation:
    """One overheard hand-off awaiting the onward transmission.

    ``eq=False``: obligations are identities, not values.  Two hand-offs
    with identical fields are still two distinct obligations, and the
    expiry timer armed for one must never settle the other.
    """

    member: str
    originator: str
    final_destination: str
    hops_travelled: int
    deadline: float
    settled: bool = False

    def matches_onward(self, packet: DataPacket) -> bool:
        """Is ``packet`` the onward copy that discharges this obligation?"""
        return (
            packet.originator == self.originator
            and packet.final_destination == self.final_destination
            and packet.hops_travelled == self.hops_travelled + 1
        )


@dataclass
class ForwardingLedger:
    """Per-member forwarding observations."""

    observed: int = 0
    forwarded: int = 0
    dropped: int = 0

    @property
    def ratio(self) -> float:
        settled = self.forwarded + self.dropped
        return self.forwarded / settled if settled else 1.0


@dataclass
class WatchdogConfig:
    """Observation thresholds.

    Attributes
    ----------
    grace:
        Seconds a member has to be overheard forwarding a packet.
    min_samples:
        Settled observations required before any judgement.
    ratio_threshold:
        Members whose forward ratio falls below this are convicted.
    """

    grace: float = 0.5
    min_samples: int = 8
    ratio_threshold: float = 0.75

    def __post_init__(self) -> None:
        if self.grace <= 0:
            raise ValueError("grace must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if not 0.0 < self.ratio_threshold <= 1.0:
            raise ValueError("ratio_threshold must be in (0, 1]")


class InfrastructureWatchdog:
    """Forwarding-plane observation attached to one RSU's detection
    service."""

    def __init__(
        self,
        service: "DetectionService",
        config: WatchdogConfig | None = None,
    ) -> None:
        self.service = service
        self.rsu = service.rsu
        self.config = config or WatchdogConfig()
        self.ledgers: dict[str, ForwardingLedger] = {}
        self._pending: dict[str, list[_Obligation]] = {}
        self.convicted: set[str] = set()
        self._stopped = False
        if self.rsu.network is None:
            raise RuntimeError("RSU must be attached before the watchdog")
        self.rsu.network.add_monitor(self.rsu, self._on_overhear)

    def stop(self) -> None:
        """Detach the monitor and neutralize every armed grace timer.

        Expiry events already in the queue still fire, but find their
        obligations settled and the watchdog stopped: no drop is marked
        and no conviction can happen after ``stop()``.
        """
        if self.rsu.network is not None:
            self.rsu.network.remove_monitor(self.rsu)
        self._stopped = True
        for bucket in self._pending.values():
            for obligation in bucket:
                obligation.settled = True
        self._pending.clear()

    @property
    def pending_count(self) -> int:
        """Obligations currently awaiting an onward copy."""
        return sum(len(bucket) for bucket in self._pending.values())

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _on_overhear(self, packet, sender: str, intended: str) -> None:
        if self._stopped or not isinstance(packet, DataPacket):
            return
        self._discharge(packet, sender)
        self._record_obligation(packet, intended)

    def _record_obligation(self, packet: DataPacket, intended: str) -> None:
        """A transit data packet was handed to one of our members."""
        if intended == packet.final_destination:
            return  # final delivery: nothing to forward
        if not self.rsu.membership.is_member(intended):
            return
        if intended in self.convicted:
            return
        bucket = self._pending.setdefault(intended, [])
        ledger = self.ledgers.setdefault(intended, ForwardingLedger())
        ledger.observed += 1
        originator = packet.originator
        final_destination = packet.final_destination
        hops_travelled = packet.hops_travelled
        deadline = self.rsu.sim.now + self.config.grace
        for existing in bucket:
            if (
                existing.originator == originator
                and existing.final_destination == final_destination
                and existing.hops_travelled == hops_travelled
                and existing.deadline == deadline
            ):
                # A duplicate radio copy of a hand-off already on the
                # books: the member owes one onward transmission for this
                # packet, so no second obligation (and no second grace
                # timer).  Checked field-by-field *before* allocating the
                # obligation — duplicates are the common case in dense
                # clusters.
                return
        obligation = _Obligation(
            member=intended,
            originator=originator,
            final_destination=final_destination,
            hops_travelled=hops_travelled,
            deadline=deadline,
        )
        bucket.append(obligation)
        self.rsu.sim.schedule(
            self.config.grace,
            self._expire,
            args=(obligation,),
            label="watchdog grace",
            wheel=True,
        )

    def _discharge(self, packet: DataPacket, sender: str) -> None:
        """The onward copy of an obligated packet was overheard."""
        bucket = self._pending.get(sender)
        if not bucket:
            return
        for index, obligation in enumerate(bucket):
            if obligation.matches_onward(packet):
                obligation.settled = True
                del bucket[index]
                if not bucket:
                    del self._pending[sender]
                self.ledgers[sender].forwarded += 1
                return

    def _expire(self, obligation: _Obligation) -> None:
        if self._stopped or obligation.settled:
            return  # discharged in time, or the watchdog was stopped
        obligation.settled = True
        bucket = self._pending.get(obligation.member)
        if bucket is not None:
            for index, candidate in enumerate(bucket):
                if candidate is obligation:
                    del bucket[index]
                    break
            if not bucket:
                self._pending.pop(obligation.member, None)
        ledger = self.ledgers[obligation.member]
        ledger.dropped += 1
        self._judge(obligation.member, ledger)

    # ------------------------------------------------------------------
    # Judgement
    # ------------------------------------------------------------------
    def _judge(self, member: str, ledger: ForwardingLedger) -> None:
        settled = ledger.forwarded + ledger.dropped
        if member in self.convicted or settled < self.config.min_samples:
            return
        if ledger.ratio >= self.config.ratio_threshold:
            return
        self.convicted.add(member)
        self._convict(member, ledger)

    def _convict(self, member: str, ledger: ForwardingLedger) -> None:
        """Hand the forwarding violator to the isolation machinery."""
        self.service.convict_forwarding_violator(
            member,
            evidence=(
                f"forwarded {ledger.forwarded}/{ledger.forwarded + ledger.dropped}"
                f" observed transit packets"
            ),
        )
