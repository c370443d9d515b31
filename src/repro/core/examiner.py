"""RSU-side BlackDP: suspicious node examination and isolation.

The examining cluster head:

1. records the ``d_req`` in its *verification table* (deduplicating
   congested-highway repeat reports about the same suspect),
2. locates the suspect — probing locally when it is a member, otherwise
   forwarding the request over the backbone to the suspect's CH,
3. probes it under a *disposable identity*: ``RREQ_1`` names a fake
   destination that does not exist; any reply is already damning,
4. confirms the AODV violation with ``RREQ_2`` for the same fake
   destination carrying a *higher* sequence number than the suspect's own
   ``RREP_1`` plus an inquiry about the next hop — a genuine node must
   not reply, the black hole outbids itself,
5. chases a disclosed teammate with a claim-check probe (cooperative
   detection), and a fleeing suspect into the next cluster (detection
   continuation),
6. isolates convicted attackers: certificate revocation through the TA,
   revocation notices to adjacent CHs, warnings to member vehicles.

Packet accounting follows Figure 5 (see :mod:`repro.core.accounting`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.clusters.rsu import RsuNode
from repro.core.accounting import DetectionRecord, PacketLedger
from repro.core.config import BlackDpConfig
from repro.core.packets import (
    VERDICT_BLACK_HOLE,
    VERDICT_CLEAN,
    VERDICT_FLED,
    VERDICT_INCONCLUSIVE,
    DetectionForward,
    DetectionRequest,
    DetectionResult,
    HelloReply,
    MemberWarning,
    RevocationNoticePacket,
    SecureHello,
)
from repro.crypto.revocation import RevocationEntry, RevocationList
from repro.net.network import BROADCAST
from repro.routing.packets import RouteReply, RouteRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.authority import TrustedAuthorityNetwork

#: Synthetic revocation serials for suspects whose certificate we never
#: saw (insecure RREPs); negative so they cannot collide with TA serials.
_synthetic_serials = iter(range(-1, -10_000_000, -1))


@dataclass
class _ExamCase:
    suspect: str
    suspect_cluster: int
    reporters: list[tuple[str, int]]
    certificate: object
    ledger: PacketLedger
    phase: str = "probe1"
    alias: str = ""
    fake_destination: str = ""
    rreq_counter: int = 0
    rrep1_seq: int | None = None
    rreq2_seq: int = 0
    retries: int = 0
    forwards: int = 0
    teammate_claim: str | None = None
    teammate_certificate: object = None
    cooperative_with: list[str] = field(default_factory=list)
    timer: object = None
    verdict: str | None = None
    started_at: float = 0.0
    examined_by: list[int] = field(default_factory=list)
    closed: bool = False


class DetectionService:
    """BlackDP detection attached to one RSU."""

    def __init__(
        self,
        rsu: RsuNode,
        ta_network: "TrustedAuthorityNetwork",
        config: BlackDpConfig | None = None,
        *,
        processor=None,
    ) -> None:
        self.rsu = rsu
        self.ta_network = ta_network
        self.config = config or BlackDpConfig()
        #: optional compute model (paper §III-C): when set, every d_req
        #: pays an authentication-processing delay before examination
        self.processor = processor
        self.crl = RevocationList()
        #: active + recently finished cases, keyed by suspect pseudonym
        self.verification_table: dict[str, _ExamCase] = {}
        #: open probes keyed by disposable alias — kept in lockstep with
        #: alias registration so reply dispatch is O(1) in table size
        self._alias_index: dict[str, _ExamCase] = {}
        #: completed detections this CH finished (emitted records)
        self.records: list[DetectionRecord] = []
        self._rng = rsu.sim.rng("detection")
        # Chain in front of the RSU's AODV for RouteReply interception.
        self._aodv_rrep_handler = rsu.handler_for(RouteReply)
        rsu.register_handler(RouteReply, self._on_rrep)
        rsu.register_handler(DetectionRequest, self._on_detection_request)
        rsu.register_handler(DetectionForward, self._on_detection_forward)
        rsu.register_handler(DetectionResult, self._on_result_relay)
        rsu.register_handler(RevocationNoticePacket, self._on_revocation_notice)
        rsu.register_handler(SecureHello, self._on_secure_hello)
        rsu.register_handler(HelloReply, self._on_hello_reply)
        rsu.on_member_join.append(self._welcome_member)
        # Replies from revoked pseudonyms must not (re)poison the RSU's
        # own forwarding table.
        rsu.aodv.reply_filter = self._reply_not_revoked

    def _reply_not_revoked(self, reply: RouteReply) -> bool:
        return not self.crl.is_revoked_id(reply.replied_by)

    @property
    def sim(self):
        return self.rsu.sim

    # ------------------------------------------------------------------
    # Detection requests
    # ------------------------------------------------------------------
    def _on_detection_request(self, packet: DetectionRequest, sender: str) -> None:
        if self.processor is not None:
            # Authenticating the reporter costs RSU compute; under load
            # this is the §III-C bottleneck (and the fog's job).
            self.processor.submit(
                partial(self._handle_detection_request, packet, sender),
                label="d_req-auth",
            )
            return
        self._handle_detection_request(packet, sender)

    def _handle_detection_request(self, packet: DetectionRequest, sender: str) -> None:
        existing = self.verification_table.get(packet.suspect)
        if existing is not None and not existing.closed:
            # Redundant report for a suspect already under examination.
            existing.reporters.append((packet.reporter, packet.reporter_cluster))
            return
        if self.crl.is_revoked_id(packet.suspect):
            # Already convicted: answer from the CRL, no re-examination.
            prior = self.verification_table.get(packet.suspect)
            verdict = (
                prior.verdict
                if prior is not None and prior.verdict is not None
                else VERDICT_BLACK_HOLE
            )
            self._send_result_to(
                packet.reporter,
                packet.reporter_cluster,
                packet.suspect,
                verdict,
                [],
            )
            return
        ledger = PacketLedger()
        ledger.count("d_req")
        case = _ExamCase(
            suspect=packet.suspect,
            suspect_cluster=packet.suspect_cluster,
            reporters=[(packet.reporter, packet.reporter_cluster)],
            certificate=packet.suspect_certificate,
            ledger=ledger,
            started_at=self.sim.now,
            examined_by=[self.rsu.cluster_index],
        )
        self.verification_table[case.suspect] = case
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.exams_started", cluster=self.rsu.cluster_index
            ).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.rsu.node_id, "exam.start", packet,
                cause=f"suspect:{packet.suspect}",
            )
        self._route_case(case)

    def _route_case(self, case: _ExamCase) -> None:
        """Probe locally, or forward the request to the suspect's CH."""
        if self.rsu.membership.is_member(case.suspect):
            self._begin_probe(case)
            return
        if (
            case.suspect_cluster
            and case.suspect_cluster != self.rsu.cluster_index
            and 1 <= case.suspect_cluster <= self.rsu.num_clusters
        ):
            self._hand_off(case, target_cluster=case.suspect_cluster)
            return
        record = self.rsu.membership.history.get(case.suspect)
        if record is not None:
            self._chase(case, record.direction)
            return
        self._finish(case, VERDICT_FLED)

    # ------------------------------------------------------------------
    # CH-to-CH hand-off
    # ------------------------------------------------------------------
    def _hand_off(self, case: _ExamCase, *, target_cluster: int) -> None:
        case.closed = True  # this CH's involvement ends; state travels on
        case.ledger.count("forward")
        forward = DetectionForward(
            src=self.rsu.address,
            dst=f"rsu-{target_cluster}",
            reporter=case.reporters[0][0],
            reporter_cluster=case.reporters[0][1],
            suspect=case.suspect,
            suspect_cluster=target_cluster,
            suspect_certificate=case.certificate,
            phase=case.phase,
            rrep1_seq=case.rrep1_seq,
            packets_so_far=case.ledger.total,
            packet_breakdown=list(case.ledger.breakdown),
            forwards_used=case.forwards,
            direction=1,
        )
        self._release_alias(case)
        if not self.rsu.send_backbone(forward):
            case.closed = False
            self._finish(case, VERDICT_FLED)

    def _chase(self, case: _ExamCase, direction: int) -> None:
        """Continue a detection after the suspect left this cluster."""
        target = self.rsu.coverage.chase_target(self.rsu.cluster_index, direction)
        if case.forwards >= self.config.max_continuation_forwards or target is None:
            self._finish(case, VERDICT_FLED)
            return
        case.forwards += 1
        self._hand_off(case, target_cluster=target)

    def _on_detection_forward(self, packet: DetectionForward, sender: str) -> None:
        existing = self.verification_table.get(packet.suspect)
        if existing is not None and not existing.closed:
            existing.reporters.append((packet.reporter, packet.reporter_cluster))
            return
        case = _ExamCase(
            suspect=packet.suspect,
            suspect_cluster=packet.suspect_cluster,
            reporters=[(packet.reporter, packet.reporter_cluster)],
            certificate=packet.suspect_certificate,
            ledger=PacketLedger(packet.packets_so_far, packet.packet_breakdown),
            phase=packet.phase,
            rrep1_seq=packet.rrep1_seq,
            forwards=packet.forwards_used,
            started_at=self.sim.now,
            examined_by=[self.rsu.cluster_index],
        )
        # Paper: the receiving CH searches its routing table *before*
        # storing, to reduce storage overhead.
        if self.rsu.membership.is_member(case.suspect):
            self.verification_table[case.suspect] = case
            self._begin_probe(case)
            return
        record = self.rsu.membership.history.get(case.suspect)
        if record is not None:
            self.verification_table[case.suspect] = case
            self._chase(case, record.direction)
            return
        self.verification_table[case.suspect] = case
        self._finish(case, VERDICT_FLED)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _begin_probe(self, case: _ExamCase) -> None:
        case.alias = f"pid-dis-{self._rng.getrandbits(40):010x}"
        self.rsu.network.add_alias(case.alias, self.rsu)
        self._alias_index[case.alias] = case
        if not case.fake_destination:
            case.fake_destination = f"pid-fake-{self._rng.getrandbits(40):010x}"
        if case.phase == "probe2" and case.rrep1_seq is not None:
            self._send_probe2(case)
        else:
            case.phase = "probe1"
            self._send_probe1(case)

    def _probe_rreq(self, case: _ExamCase, **overrides) -> RouteRequest:
        case.rreq_counter += 1
        defaults = dict(
            src=case.alias,
            dst=case.suspect,
            originator=case.alias,
            originator_seq=case.rreq_counter,
            destination=case.fake_destination,
            destination_seq=0,
            hop_count=0,
            rreq_id=case.rreq_counter,
        )
        defaults.update(overrides)
        return RouteRequest(**defaults)

    def _observe_probe(self, case: _ExamCase, probe: RouteRequest) -> None:
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.probes_sent",
                cluster=self.rsu.cluster_index,
                phase=case.phase,
            ).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.rsu.node_id, "exam.probe_tx", probe,
                cause=f"suspect:{case.suspect}", detail=case.phase,
            )

    def _send_probe1(self, case: _ExamCase) -> None:
        case.ledger.count("RREQ_1")
        probe = self._probe_rreq(case)
        self._observe_probe(case, probe)
        self.rsu.send(probe)
        self._arm_timer(case, self._probe1_timeout)

    def _send_probe2(self, case: _ExamCase) -> None:
        case.phase = "probe2"
        case.rreq2_seq = (case.rrep1_seq or 0) + 1
        case.ledger.count("RREQ_2")
        probe = self._probe_rreq(
            case, destination_seq=case.rreq2_seq, request_next_hop=True
        )
        self._observe_probe(case, probe)
        self.rsu.send(probe)
        self._arm_timer(case, self._probe2_timeout)

    def _send_teammate_probe(self, case: _ExamCase) -> None:
        case.phase = "teammate"
        case.ledger.count("RREQ_teammate")
        fake2 = f"pid-fake-{self._rng.getrandbits(40):010x}"
        probe = self._probe_rreq(
            case,
            dst=case.teammate_claim,
            destination=fake2,
            destination_seq=0,
            claim_check=case.suspect,
        )
        self._observe_probe(case, probe)
        self.rsu.send(probe)
        self._arm_timer(case, self._teammate_timeout)

    def _arm_timer(self, case: _ExamCase, handler) -> None:
        self._cancel_timer(case)
        case.timer = self.sim.schedule(
            self.config.probe_timeout,
            handler,
            args=(case,),
            label=f"probe-timeout {case.suspect}",
            wheel=True,
        )

    def _cancel_timer(self, case: _ExamCase) -> None:
        if case.timer is not None:
            case.timer.cancel()
            case.timer = None

    # ------------------------------------------------------------------
    # Probe replies
    # ------------------------------------------------------------------
    def _on_rrep(self, packet: RouteReply, sender: str) -> None:
        case = self._case_by_alias(packet.originator)
        if case is not None:
            self._on_probe_reply(case, packet)
            return
        if self._aodv_rrep_handler is not None:
            self._aodv_rrep_handler(packet, sender)

    def _case_by_alias(self, alias: str) -> _ExamCase | None:
        if not alias:
            return None
        case = self._alias_index.get(alias)
        if case is not None and not case.closed:
            return case
        return None

    def _on_probe_reply(self, case: _ExamCase, packet: RouteReply) -> None:
        trace = self.sim.obs.trace
        if trace is not None:
            trace.emit(
                self.rsu.node_id, "exam.probe_reply", packet,
                cause=f"suspect:{case.suspect}", detail=case.phase,
            )
        if case.phase == "probe1" and packet.replied_by == case.suspect:
            self._cancel_timer(case)
            case.ledger.count("RREP_1")
            case.rrep1_seq = packet.destination_seq
            if case.certificate is None and packet.certificate is not None:
                case.certificate = packet.certificate
            self._after_delay(self._send_probe2, case)
        elif case.phase == "probe2" and packet.replied_by == case.suspect:
            self._cancel_timer(case)
            case.ledger.count("RREP_2")
            if packet.destination_seq > case.rreq2_seq:
                # The AODV violation is confirmed: a fresh reply for a
                # non-existent destination, outbidding our own sequence.
                case.teammate_claim = packet.next_hop_claim
                if case.teammate_claim:
                    self._after_delay(self._send_teammate_probe, case)
                else:
                    self._finish(case, VERDICT_BLACK_HOLE)
            else:
                self._finish(case, VERDICT_INCONCLUSIVE)
        elif case.phase == "teammate" and packet.replied_by == case.teammate_claim:
            self._cancel_timer(case)
            case.ledger.count("RREP_teammate")
            # Supporting the claim of a route to a non-existent
            # destination convicts the teammate as a cooperative attacker.
            case.cooperative_with.append(case.teammate_claim)
            case.teammate_certificate = packet.certificate
            self._finish(case, VERDICT_BLACK_HOLE)

    def _after_delay(self, action, *args) -> None:
        if self.config.inter_probe_delay > 0:
            self.sim.schedule(
                self.config.inter_probe_delay,
                action,
                args=args,
                label="inter-probe delay",
            )
        else:
            action(*args)

    # ------------------------------------------------------------------
    # Probe timeouts
    # ------------------------------------------------------------------
    def _probe1_timeout(self, case: _ExamCase) -> None:
        case.timer = None
        if self.rsu.membership.is_member(case.suspect):
            if case.retries < self.config.probe_retries:
                case.retries += 1
                self._send_probe1(case)
            else:
                # Present, silent on a request it has no route for:
                # exactly what an honest node does.
                self._finish(case, VERDICT_CLEAN)
            return
        self._chase_departed(case)

    def _probe2_timeout(self, case: _ExamCase) -> None:
        case.timer = None
        if self.rsu.membership.is_member(case.suspect):
            if case.retries < self.config.probe_retries:
                case.retries += 1
                self._send_probe2(case)
            else:
                # Answered RREQ_1 but refused confirmation while still
                # present: suspicious but unconfirmed.
                self._finish(case, VERDICT_INCONCLUSIVE)
            return
        self._chase_departed(case)

    def _teammate_timeout(self, case: _ExamCase) -> None:
        case.timer = None
        # The primary attacker's violation stands regardless of whether
        # the alleged teammate confirmed.
        self._finish(case, VERDICT_BLACK_HOLE)

    def _chase_departed(self, case: _ExamCase) -> None:
        record = self.rsu.membership.history.get(case.suspect)
        if record is not None:
            self._chase(case, record.direction)
        else:
            self._finish(case, VERDICT_FLED)

    # ------------------------------------------------------------------
    # Completion, verdicts and isolation
    # ------------------------------------------------------------------
    def _finish(self, case: _ExamCase, verdict: str) -> None:
        if case.closed:
            return
        case.closed = True
        case.verdict = verdict
        self._cancel_timer(case)
        self._release_alias(case)
        case.ledger.count("result")
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.verdicts",
                cluster=self.rsu.cluster_index,
                verdict=verdict,
            ).inc()
        self._trace_verdict(case.suspect, verdict)
        reporter, reporter_cluster = case.reporters[0]
        self._send_result_to(
            reporter, reporter_cluster, case.suspect, verdict, case.cooperative_with
        )
        for extra_reporter, extra_cluster in case.reporters[1:]:
            # Redundant reporters are answered too, outside Figure 5's
            # per-detection packet count.
            self._send_result_to(
                extra_reporter, extra_cluster, case.suspect, verdict,
                case.cooperative_with,
            )
        if verdict == VERDICT_BLACK_HOLE:
            self._isolate(case)
        self.records.append(
            DetectionRecord(
                suspect=case.suspect,
                verdict=verdict,
                packets=case.ledger.total,
                cooperative_with=list(case.cooperative_with),
                reporter=reporter,
                reporter_cluster=reporter_cluster,
                examined_by=list(case.examined_by),
                started_at=case.started_at,
                finished_at=self.sim.now,
                breakdown=list(case.ledger.breakdown),
            )
        )

    def _trace_verdict(self, suspect: str, verdict: str) -> None:
        """The ``exam.verdict`` record that detection timelines read."""
        trace = self.sim.obs.trace
        if trace is not None:
            trace.emit(
                self.rsu.node_id, "exam.verdict",
                cause=f"suspect:{suspect}", detail=verdict,
            )

    def _release_alias(self, case: _ExamCase) -> None:
        if case.alias and self.rsu.network is not None:
            self.rsu.network.remove_alias(case.alias, self.rsu)
        self._alias_index.pop(case.alias, None)

    def _send_result_to(
        self,
        reporter: str,
        reporter_cluster: int,
        suspect: str,
        verdict: str,
        cooperative_with: list[str],
    ) -> None:
        result = DetectionResult(
            src=self.rsu.address,
            dst=reporter,
            reporter=reporter,
            suspect=suspect,
            verdict=verdict,
            cooperative_with=list(cooperative_with),
        )
        if (
            reporter_cluster == self.rsu.cluster_index
            or self.rsu.membership.is_member(reporter)
        ):
            self.rsu.send(result)
            return
        result.dst = f"rsu-{reporter_cluster}"
        result.relay = True
        self.rsu.send_backbone(result)

    def _on_result_relay(self, packet: DetectionResult, sender: str) -> None:
        if not packet.relay:
            return
        relayed = DetectionResult(
            src=self.rsu.address,
            dst=packet.reporter,
            reporter=packet.reporter,
            suspect=packet.suspect,
            verdict=packet.verdict,
            cooperative_with=list(packet.cooperative_with),
            relay=False,
        )
        self.rsu.send(relayed)

    # ------------------------------------------------------------------
    # Isolation phase
    # ------------------------------------------------------------------
    def _isolate(self, case: _ExamCase) -> None:
        entries = [self._revoke(case.suspect, case.certificate)]
        for teammate in case.cooperative_with:
            entries.append(self._revoke(teammate, case.teammate_certificate))
        for entry in entries:
            self.crl.add(entry)
        # Cache hygiene: cached routes may carry the attacker's forged
        # sequence numbers and would outbid genuine rediscoveries.
        self.rsu.aodv.table.flush()
        self._notify_neighbors(entries)
        self._warn_members([entry.subject_id for entry in entries])

    def convict_forwarding_violator(self, suspect: str, *, evidence: str):
        """Isolate a member convicted by the infrastructure watchdog.

        No probe sequence ran — the evidence is the member's own observed
        forwarding behaviour — so the record carries a zero packet count
        and the evidence string in its breakdown.
        """
        from repro.core.watchdog import VERDICT_GRAY_HOLE

        ledger = PacketLedger()
        ledger.breakdown.append(f"watchdog-evidence: {evidence}")
        case = _ExamCase(
            suspect=suspect,
            suspect_cluster=self.rsu.cluster_index,
            reporters=[(self.rsu.address, self.rsu.cluster_index)],
            certificate=self._lookup_certificate(suspect),
            ledger=ledger,
            started_at=self.sim.now,
            examined_by=[self.rsu.cluster_index],
        )
        case.closed = True
        case.verdict = VERDICT_GRAY_HOLE
        self.verification_table[suspect] = case
        self._trace_verdict(suspect, VERDICT_GRAY_HOLE)
        self._isolate(case)
        record = DetectionRecord(
            suspect=suspect,
            verdict=VERDICT_GRAY_HOLE,
            packets=ledger.total,
            reporter=self.rsu.address,
            reporter_cluster=self.rsu.cluster_index,
            examined_by=[self.rsu.cluster_index],
            started_at=case.started_at,
            finished_at=self.sim.now,
            breakdown=list(ledger.breakdown),
        )
        self.records.append(record)
        return record

    def convict_flooder(self, suspect: str, *, evidence: str):
        """Isolate an RREQ flooder convicted by the aggregate monitor.

        The evidence is statistical — a per-origin RREQ rate sustained
        above the dynamic threshold (see ``repro.sketch``) — so, like
        forwarding convictions, the record carries the evidence string
        in its breakdown rather than a probe ledger.
        """
        from repro.sketch import VERDICT_FLOODER

        existing = self.verification_table.get(suspect)
        if existing is not None and existing.closed:
            return None  # already convicted (possibly by a neighbor CH)
        ledger = PacketLedger()
        ledger.breakdown.append(f"sketch-evidence: {evidence}")
        case = _ExamCase(
            suspect=suspect,
            suspect_cluster=self.rsu.cluster_index,
            reporters=[(self.rsu.address, self.rsu.cluster_index)],
            certificate=self._lookup_certificate(suspect),
            ledger=ledger,
            started_at=self.sim.now,
            examined_by=[self.rsu.cluster_index],
        )
        case.closed = True
        case.verdict = VERDICT_FLOODER
        self.verification_table[suspect] = case
        self._trace_verdict(suspect, VERDICT_FLOODER)
        self._isolate(case)
        record = DetectionRecord(
            suspect=suspect,
            verdict=VERDICT_FLOODER,
            packets=ledger.total,
            reporter=self.rsu.address,
            reporter_cluster=self.rsu.cluster_index,
            examined_by=[self.rsu.cluster_index],
            started_at=case.started_at,
            finished_at=self.sim.now,
            breakdown=list(ledger.breakdown),
        )
        self.records.append(record)
        return record

    def convict_suspect(self, suspect: str, *, verdict: str, evidence: str):
        """Isolate a member convicted by an external (arena) detector.

        Generic entry point for pluggable detectors (``repro.arena``):
        like flooder/watchdog convictions there is no probe ledger, only
        the detector's evidence string, and an ``exam.verdict`` trace
        event is emitted so detection timelines reconstruct; unlike them
        the verdict string is caller-supplied.
        """
        existing = self.verification_table.get(suspect)
        if existing is not None and existing.closed:
            return None  # already convicted (possibly by a neighbor CH)
        if self.crl.is_revoked_id(suspect):
            return None
        ledger = PacketLedger()
        ledger.breakdown.append(f"arena-evidence: {evidence}")
        case = _ExamCase(
            suspect=suspect,
            suspect_cluster=self.rsu.cluster_index,
            reporters=[(self.rsu.address, self.rsu.cluster_index)],
            certificate=self._lookup_certificate(suspect),
            ledger=ledger,
            started_at=self.sim.now,
            examined_by=[self.rsu.cluster_index],
        )
        case.closed = True
        case.verdict = verdict
        self.verification_table[suspect] = case
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.verdicts",
                cluster=self.rsu.cluster_index,
                verdict=verdict,
            ).inc()
        self._trace_verdict(suspect, verdict)
        self._isolate(case)
        record = DetectionRecord(
            suspect=suspect,
            verdict=verdict,
            packets=ledger.total,
            reporter=self.rsu.address,
            reporter_cluster=self.rsu.cluster_index,
            examined_by=[self.rsu.cluster_index],
            started_at=case.started_at,
            finished_at=self.sim.now,
            breakdown=list(ledger.breakdown),
        )
        self.records.append(record)
        return record

    def _lookup_certificate(self, pseudonym: str):
        for authority in self.ta_network.authorities.values():
            certificate = authority.certificate_for(pseudonym)
            if certificate is not None:
                return certificate
        return None

    def _revoke(self, suspect: str, certificate) -> RevocationEntry:
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.revocations", cluster=self.rsu.cluster_index
            ).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.rsu.node_id, "exam.revoke", cause=f"suspect:{suspect}"
            )
        authority = self.ta_network.authority_for_cluster(self.rsu.node_id)
        if certificate is None:
            # The probe replies were unsigned; ask the TA hierarchy for
            # the certificate it issued to this pseudonym.
            certificate = self._lookup_certificate(suspect)
        if certificate is not None:
            return authority.revoke(certificate)
        # We never saw the suspect's certificate (insecure RREPs): issue a
        # synthetic entry so the pseudonym is still blacklisted.
        entry = RevocationEntry(
            subject_id=suspect,
            serial=next(_synthetic_serials),
            expires_at=self.sim.now + 600.0,
        )
        self.ta_network.propagate_revocation(entry)
        return entry

    def _notify_neighbors(self, entries: list[RevocationEntry]) -> None:
        for neighbor in self.rsu.neighbor_rsus:
            self.rsu.send_backbone(
                RevocationNoticePacket(
                    src=self.rsu.address,
                    dst=neighbor.address,
                    entries=list(entries),
                    hops_remaining=0,
                )
            )

    def _on_revocation_notice(self, packet: RevocationNoticePacket, sender: str) -> None:
        fresh = [entry for entry in packet.entries if self.crl.add(entry)]
        if fresh:
            obs = self.sim.obs
            if obs.trace is not None:
                # The propagation half of the detection timeline: this
                # CH just adopted the revocation into its CRL.
                for entry in fresh:
                    obs.trace.emit(
                        self.rsu.node_id,
                        "exam.revoke_rx",
                        cause=f"suspect:{entry.subject_id}",
                    )
            self.rsu.aodv.table.flush()
            self._warn_members([entry.subject_id for entry in fresh])
        if packet.hops_remaining > 0:
            for neighbor in self.rsu.neighbor_rsus:
                if neighbor.address == sender:
                    continue
                self.rsu.send_backbone(
                    RevocationNoticePacket(
                        src=self.rsu.address,
                        dst=neighbor.address,
                        entries=list(packet.entries),
                        hops_remaining=packet.hops_remaining - 1,
                    )
                )

    def _warn_members(self, revoked_ids: list[str]) -> None:
        self.rsu.send(
            MemberWarning(
                src=self.rsu.address, dst=BROADCAST, revoked_ids=list(revoked_ids)
            )
        )

    def _welcome_member(self, address: str) -> None:
        if not self.config.warn_newcomers or not len(self.crl):
            return
        self.rsu.send(
            MemberWarning(
                src=self.rsu.address,
                dst=address,
                revoked_ids=[entry.subject_id for entry in self.crl],
            )
        )

    def prune(self) -> None:
        """Periodic housekeeping: drop expired revocations and stale
        member history (the paper's storage-overhead rule)."""
        self.crl.prune_expired(self.sim.now)
        self.rsu.membership.prune_history(self.sim.now, max_age=600.0)

    # ------------------------------------------------------------------
    # Honest Hello relaying (routes may pass through RSUs)
    # ------------------------------------------------------------------
    def _on_secure_hello(self, packet: SecureHello, sender: str) -> None:
        if packet.target == self.rsu.address:
            return  # RSUs are never Hello targets in this protocol
        route = self.rsu.aodv.table.lookup(packet.target, self.sim.now)
        if route is None:
            return
        self.rsu.send(
            SecureHello(
                src=self.rsu.address,
                dst=route.next_hop,
                originator=packet.originator,
                target=packet.target,
                nonce=packet.nonce,
                certificate=packet.certificate,
                signature=packet.signature,
            )
        )

    def _on_hello_reply(self, packet: HelloReply, sender: str) -> None:
        if packet.originator == self.rsu.address:
            return
        route = self.rsu.aodv.table.lookup(packet.originator, self.sim.now)
        if route is None:
            return
        self.rsu.send(
            HelloReply(
                src=self.rsu.address,
                dst=route.next_hop,
                originator=packet.originator,
                responder=packet.responder,
                nonce=packet.nonce,
                certificate=packet.certificate,
                signature=packet.signature,
            )
        )


def install_detection(
    rsu: RsuNode,
    ta_network: "TrustedAuthorityNetwork",
    config: BlackDpConfig | None = None,
    *,
    processor=None,
) -> DetectionService:
    """Equip an RSU with the BlackDP detection service."""
    return DetectionService(rsu, ta_network, config, processor=processor)
