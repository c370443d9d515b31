"""Vehicle-side BlackDP: source and destination verification.

After every route discovery the verifier authenticates the best reply
and, when an intermediate node answered, probes the route with an
authenticated Hello addressed to the destination:

- a valid Hello reply proves the route (and the destination's identity),
- silence triggers the paper's confirmation step — a second discovery
  and a second Hello — before the replier is reported as a suspect,
- a *fake* Hello reply ("claiming that itself or the teammate attacker
  is the destination") is an anonymity response: the suspect is reported
  immediately, without the second discovery.

Reports are ``d_req`` packets to the vehicle's cluster head; the verdict
comes back asynchronously and convicted pseudonyms enter the vehicle's
blacklist, after which their replies are ignored entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.core.config import BlackDpConfig
from repro.core.packets import (
    VERDICT_BLACK_HOLE,
    DetectionRequest,
    DetectionResult,
    HelloReply,
    MemberWarning,
    SecureHello,
)
from repro.crypto.keys import PublicKey, sign, verify
from repro.routing.packets import RouteReply
from repro.routing.protocol import DiscoveryResult
from repro.routing.table import RouteEntry
from repro.vehicles.vehicle import VehicleNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


@dataclass
class VerificationOutcome:
    """Result of one verified route establishment.

    ``verified`` means a route exists *and* passed authentication;
    ``prevented`` means the suspicious route was avoided even though no
    (or no conclusive) detection happened — the paper's "could not
    prevent BlackDP from impeding black hole attackers from launching
    their attack".
    """

    destination: str
    verified: bool
    route: RouteEntry | None = None
    reason: str = ""
    suspect: str | None = None
    verdict: str | None = None
    cooperative_with: list[str] = field(default_factory=list)
    prevented: bool = False
    discoveries: int = 0


@dataclass
class _Case:
    destination: str
    callback: Callable[[VerificationOutcome], None]
    attempt: int = 1
    discoveries: int = 0
    suspect: str | None = None
    suspect_cluster: int = 0
    suspect_certificate: object = None
    nonce: int = 0
    hello_timer: object = None
    result_timer: object = None
    finished: bool = False


class _BlacklistGate:
    """Admission gate dropping transmissions from blacklisted pseudonyms.

    A module-level callable class (rather than a closure) so a vehicle
    carrying it can be pickled into a world snapshot.  Chains to the gate
    that was installed before it, preserving stacked gate semantics.
    """

    __slots__ = ("vehicle", "previous")

    def __init__(self, vehicle: VehicleNode, previous) -> None:
        self.vehicle = vehicle
        self.previous = previous

    def __call__(self, packet, sender: str) -> bool:
        if sender in self.vehicle.blacklist:
            return False
        return self.previous(packet, sender) if self.previous else True


class RouteVerifier:
    """Attach BlackDP verification to an honest vehicle.

    Also installs the honest-node duties BlackDP relies on: forwarding
    Secure Hello packets along known routes, answering Hellos addressed
    to this vehicle, and honouring member warnings from the cluster head.
    """

    def __init__(
        self,
        vehicle: VehicleNode,
        authority_key: PublicKey,
        config: BlackDpConfig | None = None,
    ) -> None:
        self.vehicle = vehicle
        self.authority_key = authority_key
        self.config = config or BlackDpConfig()
        self._cases: dict[str, _Case] = {}
        self._by_suspect: dict[str, _Case] = {}
        self._nonces = 0
        #: completed outcomes, newest last (inspection/metrics)
        self.outcomes: list[VerificationOutcome] = []
        vehicle.register_handler(SecureHello, self._on_secure_hello)
        vehicle.register_handler(HelloReply, self._on_hello_reply)
        vehicle.register_handler(DetectionResult, self._on_detection_result)
        vehicle.register_handler(MemberWarning, self._on_member_warning)
        # Revoked pseudonyms must not re-poison the routing table: drop
        # their replies at the protocol layer.
        vehicle.aodv.reply_filter = self._reply_admissible
        # And "avoid communications with the attacker(s)" entirely: any
        # transmission from a blacklisted pseudonym is dropped at the
        # admission gate, so a revoked node cannot even serve as a relay.
        vehicle.gate = _BlacklistGate(vehicle, vehicle.gate)

    def _reply_admissible(self, reply: RouteReply) -> bool:
        return reply.replied_by not in self.vehicle.blacklist

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def establish_route(
        self,
        destination: str,
        callback: Callable[[VerificationOutcome], None],
    ) -> None:
        """Discover and *verify* a route to ``destination``.

        ``callback`` fires exactly once with the final outcome — verified
        route, prevention, or a detection verdict from the cluster head.
        """
        if destination in self._cases:
            raise RuntimeError(f"verification to {destination!r} already running")
        case = _Case(destination, callback)
        self._cases[destination] = case
        obs = self.vehicle.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.verifications_started", node=self.vehicle.node_id
            ).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.vehicle.node_id, "verify.start", detail=destination
            )
        self._discover(case)

    # ------------------------------------------------------------------
    # Discovery evaluation
    # ------------------------------------------------------------------
    def _discover(self, case: _Case) -> None:
        case.discoveries += 1
        self.vehicle.aodv.discover(case.destination, partial(self._evaluate, case))

    def _evaluate(self, case: _Case, result: DiscoveryResult) -> None:
        if case.finished:
            return
        usable = [
            r for r in result.replies if r.replied_by not in self.vehicle.blacklist
        ]
        ignored_blacklisted = len(result.replies) - len(usable)
        if not usable:
            self._finish(
                case,
                verified=False,
                reason="no-route" if not ignored_blacklisted else "all-repliers-blacklisted",
                prevented=ignored_blacklisted > 0,
            )
            return
        best = max(usable, key=lambda r: (r.destination_seq, -r.hop_count))
        if case.attempt >= 2 and case.suspect is not None:
            # Confirmation round: did the suspect take the bait again?
            from_suspect = [r for r in usable if r.replied_by == case.suspect]
            if not from_suspect:
                # Suspect went quiet; fall through and evaluate whatever
                # else answered (possibly the genuine destination).
                others = [r for r in usable if r.replied_by != case.suspect]
                if not others:
                    self._finish(
                        case,
                        verified=False,
                        reason="suspect-went-quiet",
                        prevented=True,
                    )
                    return
                best = max(others, key=lambda r: (r.destination_seq, -r.hop_count))
            else:
                best = max(
                    from_suspect, key=lambda r: (r.destination_seq, -r.hop_count)
                )
        if not self._authenticate(best):
            self._suspect(case, best, reason="authentication-violation")
            self._report(case)
            return
        if best.replied_by == case.destination:
            self._finish(
                case,
                verified=True,
                route=self.vehicle.aodv.table.lookup(
                    case.destination, self.vehicle.sim.now
                ),
                reason="destination-reply",
            )
            return
        if best.certificate is not None and best.certificate.role == "rsu":
            # Trusted roadside infrastructure answered from its table;
            # per the paper's trust model RSUs are authenticated trusted
            # nodes, so their route information needs no Hello probe.
            self._finish(
                case,
                verified=True,
                route=self.vehicle.aodv.table.lookup(
                    case.destination, self.vehicle.sim.now
                ),
                reason="trusted-infrastructure-reply",
            )
            return
        # An intermediate claims the route: verify end-to-end with a Hello.
        self._suspect(case, best, reason="")
        self._send_hello(case)

    def _authenticate(self, reply: RouteReply) -> bool:
        """The paper's secure-RREP check: certificate chains to the TA,
        binds the replier's pseudonym, and the signature matches."""
        if not reply.is_secure:
            return False
        certificate = reply.certificate
        if certificate.subject_id != reply.replied_by:
            return False
        if not certificate.verify_with(self.authority_key, self.vehicle.sim.now):
            return False
        return verify(
            certificate.public_key, reply.signed_payload(), reply.signature
        )

    def _suspect(self, case: _Case, reply: RouteReply, reason: str) -> None:
        case.suspect = reply.replied_by
        case.suspect_cluster = reply.cluster_of_replier
        case.suspect_certificate = reply.certificate

    # ------------------------------------------------------------------
    # Hello probing
    # ------------------------------------------------------------------
    def _send_hello(self, case: _Case) -> None:
        route = self.vehicle.aodv.table.lookup(case.destination, self.vehicle.sim.now)
        if route is None:
            self._finish(case, verified=False, reason="route-vanished", prevented=True)
            return
        self._nonces += 1
        case.nonce = self._nonces
        hello = SecureHello(
            src=self.vehicle.address,
            dst=route.next_hop,
            originator=self.vehicle.address,
            target=case.destination,
            nonce=case.nonce,
        )
        self._sign_hello(hello)
        obs = self.vehicle.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.hello_probes", node=self.vehicle.node_id
            ).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.vehicle.node_id, "verify.hello_tx", hello,
                cause=f"suspect:{case.suspect}" if case.suspect else "",
                detail=f"target={case.destination}",
            )
        self.vehicle.send(hello)
        case.hello_timer = self.vehicle.sim.schedule(
            self.config.hello_timeout,
            self._hello_timeout,
            args=(case,),
            label="hello-timeout",
            wheel=True,
        )

    def _sign_hello(self, hello: SecureHello) -> None:
        credential = self.vehicle.identity()
        if credential is None:
            return
        certificate, private_key = credential
        hello.certificate = certificate
        hello.signature = sign(private_key, hello.signed_payload())

    def _hello_timeout(self, case: _Case) -> None:
        if case.finished:
            return
        case.hello_timer = None
        if case.attempt == 1 and self.config.second_discovery:
            case.attempt = 2
            self._discover(case)
            return
        self._report(case)

    def _on_hello_reply(self, packet: HelloReply, sender: str) -> None:
        if packet.originator != self.vehicle.address:
            self._forward_hello_reply(packet)
            return
        case = self._cases.get(packet.responder) or self._case_by_nonce(packet.nonce)
        if case is None or case.finished:
            return
        if case.nonce != packet.nonce:
            return
        if case.hello_timer is not None:
            case.hello_timer.cancel()
            case.hello_timer = None
        if self._hello_reply_valid(case, packet):
            self._finish(
                case,
                verified=True,
                route=self.vehicle.aodv.table.lookup(
                    case.destination, self.vehicle.sim.now
                ),
                reason="hello-verified",
            )
        else:
            # Anonymity response: someone (the suspect or a teammate)
            # faked the destination's reply — report immediately.
            self._report(case, reason="fake-hello-reply")

    def _forward_hello_reply(self, packet: HelloReply) -> None:
        """Relay a reply towards its originator along the reverse route
        (installed when the originator's discovery flood passed by)."""
        route = self.vehicle.aodv.table.lookup(
            packet.originator, self.vehicle.sim.now
        )
        if route is None:
            return
        self.vehicle.send(
            HelloReply(
                src=self.vehicle.address,
                dst=route.next_hop,
                originator=packet.originator,
                responder=packet.responder,
                nonce=packet.nonce,
                certificate=packet.certificate,
                signature=packet.signature,
            )
        )

    def _case_by_nonce(self, nonce: int) -> _Case | None:
        for case in self._cases.values():
            if case.nonce == nonce:
                return case
        return None

    def _hello_reply_valid(self, case: _Case, packet: HelloReply) -> bool:
        if packet.responder != case.destination:
            return False
        if packet.certificate is None or packet.signature is None:
            return False
        if packet.certificate.subject_id != packet.responder:
            return False
        if not packet.certificate.verify_with(self.authority_key, self.vehicle.sim.now):
            return False
        return verify(
            packet.certificate.public_key, packet.signed_payload(), packet.signature
        )

    # ------------------------------------------------------------------
    # Reporting to the cluster head
    # ------------------------------------------------------------------
    def _report(self, case: _Case, reason: str = "no-destination-response") -> None:
        if case.finished or case.suspect is None:
            return
        if self.vehicle.current_ch is None:
            self._finish(case, verified=False, reason="no-cluster-head", prevented=True)
            return
        request = DetectionRequest(
            src=self.vehicle.address,
            dst=self.vehicle.current_ch,
            reporter=self.vehicle.address,
            reporter_cluster=self.vehicle.current_cluster or 0,
            suspect=case.suspect,
            suspect_cluster=case.suspect_cluster,
            suspect_certificate=case.suspect_certificate,
        )
        obs = self.vehicle.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.reports_sent", node=self.vehicle.node_id
            ).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.vehicle.node_id, "verify.report", request,
                cause=f"suspect:{case.suspect}", detail=reason,
            )
        self.vehicle.send(request)
        self._by_suspect[case.suspect] = case
        case.result_timer = self.vehicle.sim.schedule(
            self.config.result_timeout,
            self._result_timeout,
            args=(case,),
            label="result-timeout",
            wheel=True,
        )

    def _result_timeout(self, case: _Case) -> None:
        if case.finished:
            return
        self._finish(
            case,
            verified=False,
            reason="detection-result-timeout",
            prevented=True,
        )

    def _on_detection_result(self, packet: DetectionResult, sender: str) -> None:
        if packet.reporter != self.vehicle.address:
            return
        case = self._by_suspect.get(packet.suspect)
        if packet.verdict == VERDICT_BLACK_HOLE:
            self._blacklist([packet.suspect, *packet.cooperative_with])
        if case is None or case.finished:
            return
        self._finish(
            case,
            verified=False,
            reason="detection-complete",
            verdict=packet.verdict,
            cooperative_with=list(packet.cooperative_with),
            prevented=True,
        )

    # ------------------------------------------------------------------
    # Honest-node duties
    # ------------------------------------------------------------------
    def _on_secure_hello(self, packet: SecureHello, sender: str) -> None:
        if packet.target == self.vehicle.address:
            self._answer_hello(packet, sender)
            return
        # Forward along our route to the target, recording the path so
        # the reply can be source-routed back.
        route = self.vehicle.aodv.table.lookup(packet.target, self.vehicle.sim.now)
        if route is None:
            return  # honest node without a route stays silent
        forwarded = SecureHello(
            src=self.vehicle.address,
            dst=route.next_hop,
            originator=packet.originator,
            target=packet.target,
            nonce=packet.nonce,
            certificate=packet.certificate,
            signature=packet.signature,
        )
        self.vehicle.send(forwarded)

    def _answer_hello(self, packet: SecureHello, sender: str) -> None:
        reply = HelloReply(
            src=self.vehicle.address,
            dst=sender,
            originator=packet.originator,
            responder=self.vehicle.address,
            nonce=packet.nonce,
        )
        credential = self.vehicle.identity()
        if credential is not None:
            certificate, private_key = credential
            reply.certificate = certificate
            reply.signature = sign(private_key, reply.signed_payload())
        self.vehicle.send(reply)

    def _on_member_warning(self, packet: MemberWarning, sender: str) -> None:
        self._blacklist(packet.revoked_ids)

    def _blacklist(self, revoked_ids) -> None:
        """Blacklist pseudonyms and flush the route cache.

        The flush is the cache-hygiene half of isolation: the forged
        sequence numbers may have propagated into any cached route (even
        ones whose next hop is honest), so every route learned before the
        warning is suspect and gets rediscovered on demand.
        """
        fresh = [r for r in revoked_ids if r not in self.vehicle.blacklist]
        if not fresh:
            return
        obs = self.vehicle.sim.obs
        if obs.trace is not None:
            # Vehicle-side isolation: the verdict reached this node and
            # its replies will be ignored from now on.
            for revoked in fresh:
                obs.trace.emit(
                    self.vehicle.node_id,
                    "verify.blacklist",
                    cause=f"suspect:{revoked}",
                )
        self.vehicle.blacklist.update(fresh)
        self.vehicle.aodv.table.flush()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _finish(
        self,
        case: _Case,
        *,
        verified: bool,
        route: RouteEntry | None = None,
        reason: str = "",
        verdict: str | None = None,
        cooperative_with: list[str] | None = None,
        prevented: bool = False,
    ) -> None:
        if case.finished:
            return
        case.finished = True
        for timer in (case.hello_timer, case.result_timer):
            if timer is not None:
                timer.cancel()
        self._cases.pop(case.destination, None)
        if case.suspect is not None:
            existing = self._by_suspect.get(case.suspect)
            if existing is case:
                del self._by_suspect[case.suspect]
        outcome = VerificationOutcome(
            destination=case.destination,
            verified=verified,
            route=route,
            reason=reason,
            suspect=case.suspect,
            verdict=verdict,
            cooperative_with=cooperative_with or [],
            prevented=prevented,
            discoveries=case.discoveries,
        )
        obs = self.vehicle.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter(
                "blackdp.verifications",
                node=self.vehicle.node_id,
                result="verified" if verified else "refused",
            ).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.vehicle.node_id, "verify.outcome",
                cause=f"suspect:{case.suspect}" if case.suspect else "",
                detail=reason,
            )
        self.outcomes.append(outcome)
        case.callback(outcome)


def install_verifier(
    vehicle: VehicleNode,
    authority_key: PublicKey,
    config: BlackDpConfig | None = None,
) -> RouteVerifier:
    """Equip an honest vehicle with BlackDP verification."""
    return RouteVerifier(vehicle, authority_key, config)
