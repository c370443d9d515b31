"""Single black hole attacker.

The malicious AODV overrides exactly two honest hooks:

- ``_answer_rreq``: instead of forwarding the flood, immediately reply
  with a sequence number far above anything legitimate ("it tries to set
  its SN to the highest possible to guarantee its RREP is selected") —
  and, per the AODV violation BlackDP exploits, *always* exceed the
  sequence number the request asked for, even on a repeat probe.
- ``_accept_data``: drop every transit packet (the denial of service).

The attacker also answers BlackDP's extended requests the way the paper
predicts: it discloses a teammate in ``next_hop_claim`` when asked for a
next hop, and (as the teammate) approves ``claim_check`` requests that
name its partner.
"""

from __future__ import annotations

from repro.attacks.policy import AttackerPolicy
from repro.mobility.highway import Highway
from repro.net.node import Node
from repro.routing.packets import UNKNOWN_SEQ, DataPacket, RouteRequest
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim.simulator import Simulator
from repro.vehicles.vehicle import VehicleNode


class BlackHoleAodv(AodvProtocol):
    """AODV engine with black hole behaviour."""

    def __init__(
        self,
        node: Node,
        config: AodvConfig | None = None,
        *,
        policy: AttackerPolicy | None = None,
        teammate: str | None = None,
        identity=None,
    ) -> None:
        super().__init__(node, config, identity=identity)
        self.policy = policy or AttackerPolicy()
        #: cooperative partner's address, or None for a single attacker
        self.teammate = teammate
        self.fake_replies_sent = 0
        self.data_dropped = 0
        self._attack_rng = node.sim.rng("attacker")
        #: highest fake sequence number used so far; replies escalate past it
        self._last_fake_seq = 0

    # ------------------------------------------------------------------
    # Malicious RREQ handling
    # ------------------------------------------------------------------
    def _answer_rreq(self, packet: RouteRequest, sender: str) -> None:
        if not self._attack_now():
            super()._answer_rreq(packet, sender)  # act legitimately
            return
        requested = 0 if packet.destination_seq == UNKNOWN_SEQ else packet.destination_seq
        fake_seq = max(
            requested + self.policy.fake_seq_boost,
            self._last_fake_seq + self.policy.fake_seq_boost // 2,
        )
        self._last_fake_seq = fake_seq
        claim = None
        if packet.request_next_hop:
            # Asked to disclose the next hop: a cooperative attacker names
            # its teammate; a single attacker improvises nothing.
            claim = self.teammate
        self._send_rrep(
            to=sender,
            originator=packet.originator,
            destination=packet.destination,
            destination_seq=fake_seq,
            hop_count=self.policy.fake_hop_count,
            next_hop_claim=claim,
            in_reply_to=packet,
        )
        self.fake_replies_sent += 1
        self._after_fake_reply()

    def _attack_now(self) -> bool:
        """Policy gate evaluated per request."""
        policy = self.policy
        if policy.max_replies is not None and self.fake_replies_sent >= policy.max_replies:
            return False
        if policy.respond_probability >= 1.0:
            return True
        if policy.respond_probability <= 0.0:
            return False
        return self._attack_rng.random() < policy.respond_probability

    def _after_fake_reply(self) -> None:
        """Trigger policy evasions once their reply threshold is hit."""
        policy = self.policy
        count = self.fake_replies_sent
        if policy.flee_after_replies is not None and count == policy.flee_after_replies:
            self._flee()
        if policy.renew_after_replies is not None and count == policy.renew_after_replies:
            self._renew()

    def _flee(self) -> None:
        node = self.node
        if isinstance(node, BlackHoleVehicle):
            node.flee()

    def _renew(self) -> None:
        node = self.node
        if isinstance(node, BlackHoleVehicle):
            node.renew_identity()

    # ------------------------------------------------------------------
    # Data dropping
    # ------------------------------------------------------------------
    def _accept_data(self, packet: DataPacket, sender: str) -> bool:
        self.data_dropped += 1
        return False


class BlackHoleVehicle(VehicleNode):
    """A vehicle whose AODV engine is a black hole.

    Construct like a :class:`~repro.vehicles.vehicle.VehicleNode`, plus a
    :class:`~repro.attacks.policy.AttackerPolicy` and, for cooperative
    attacks, the teammate's address (see
    :func:`repro.attacks.cooperative.make_cooperative_pair`).
    """

    def __init__(
        self,
        simulator: Simulator,
        highway: Highway,
        node_id: str,
        motion,
        *,
        policy: AttackerPolicy | None = None,
        enrolment=None,
        authority=None,
        transmission_range: float = 1000.0,
        aodv_config: AodvConfig | None = None,
    ) -> None:
        self._policy = policy or AttackerPolicy()
        super().__init__(
            simulator,
            highway,
            node_id,
            motion,
            enrolment=enrolment,
            authority=authority,
            transmission_range=transmission_range,
            aodv_config=aodv_config,
        )

    def _make_aodv(self, config: AodvConfig | None) -> BlackHoleAodv:
        aodv = BlackHoleAodv(
            self, config, policy=self._policy, identity=self.identity
        )
        if self._policy.fake_hello_reply:
            # Deferred import: attacks -> core only for the packet types.
            from repro.core.packets import SecureHello

            self.register_handler(SecureHello, self._fake_hello_reply)
        return aodv

    def _fake_hello_reply(self, packet, sender: str) -> None:
        """Answer a verification Hello with a forged destination reply.

        The forged reply claims ``responder = target`` but can only be
        signed with the attacker's own key — the verifier's certificate
        check exposes the mismatch and reports immediately (the paper's
        anonymity-response path, no second discovery).
        """
        from repro.core.packets import HelloReply
        from repro.crypto.keys import sign

        reply = HelloReply(
            src=self.address,
            dst=sender,
            originator=packet.originator,
            responder=packet.target,  # the lie
            nonce=packet.nonce,
        )
        credential = self.identity()
        if credential is not None:
            certificate, private_key = credential
            reply.certificate = certificate
            reply.signature = sign(private_key, reply.signed_payload())
        self.send(reply)

    @property
    def policy(self) -> AttackerPolicy:
        return self.aodv.policy

    def set_teammate(self, address: str | None) -> None:
        self.aodv.teammate = address

    def flee(self) -> None:
        """Evade detection by speed: bolt out of the current cluster, or
        straight off the highway when already in the last one."""
        if self.exited:
            return
        x, _y = self.position
        in_last_cluster = (
            self.highway.cluster_index_at(min(x, self.highway.length))
            == self.highway.num_clusters
        )
        direction = 1 if self.direction >= 0 else -1
        if hasattr(self.motion, "set_speed"):
            self.set_speed(direction * self.policy.flee_speed)
            self._schedule_crossing()
        if in_last_cluster and direction > 0:
            # Close enough to the end: model the paper's "fled from the
            # network, specifically cluster 10" as an immediate exit.
            self.leave_highway()

    def supports_claim(self, claimant: str) -> bool:
        """True when this attacker vouches for ``claimant`` (teammate)."""
        return self.aodv.teammate is not None and claimant == self.aodv.teammate
