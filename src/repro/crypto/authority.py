"""Trusted authorities: enrolment, pseudonym renewal and revocation.

The paper assumes a root of trust (e.g. the Department of Motor Vehicles)
deployed hierarchically via fog computing: several TA nodes, each
responsible for a region of cluster heads, all able to issue and revoke
certificates.  A revocation processed by one TA propagates to the others
so that the attacker's renewal requests are paused network-wide.

All TA nodes in one :class:`TrustedAuthorityNetwork` sign with a common
root key (modelling a cross-certified hierarchy), so a vehicle can verify
any certificate with the single well-known authority public key
``K_TA+``, exactly as the paper describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.certificates import Certificate, certificate_payload
from repro.crypto.keys import KeyPair, PublicKey, generate_keypair, sign
from repro.crypto.pseudonyms import PseudonymManager
from repro.crypto.revocation import RevocationEntry, RevocationList
from repro.crypto.sigcache import signature_cache

#: Default certificate lifetime in simulation seconds.  Long relative to
#: a single route discovery, short enough that pseudonym renewal happens
#: within an experiment when the scenario asks for it.
DEFAULT_CERT_LIFETIME = 600.0


@dataclass(frozen=True)
class Enrolment:
    """What a vehicle receives from the TA: a key pair and a certificate."""

    keypair: KeyPair
    certificate: Certificate

    def identity(self) -> tuple[Certificate, object]:
        """Credential provider ``() -> (certificate, private key)``.

        Assignable directly as an AODV identity hook.
        """
        return (self.certificate, self.keypair.private)


class TrustedAuthority:
    """One TA (fog) node.

    Parameters
    ----------
    ta_id:
        Identity of this TA node (e.g. ``"ta1"``).
    network:
        The :class:`TrustedAuthorityNetwork` this node belongs to; issues
        serials and propagates revocations.
    rng:
        Random stream used for key and pseudonym generation.
    """

    def __init__(
        self,
        ta_id: str,
        network: "TrustedAuthorityNetwork",
        rng: random.Random,
    ) -> None:
        self.ta_id = ta_id
        self.network = network
        self._rng = rng
        self._pseudonyms = PseudonymManager(rng, prefix=f"{ta_id}-pid")
        self.crl = RevocationList()
        #: long-term identities whose renewals are paused (detected attackers)
        self.paused: set[str] = set()
        #: long-term identity -> currently valid certificate serials
        self._issued: dict[str, list[Certificate]] = {}
        #: pseudonym -> long-term identity (TA-private mapping)
        self._owner_of: dict[str, str] = {}
        #: pseudonym -> certificate (TA-private; serves revocation
        #: requests that arrive with only a pseudonym in evidence)
        self._cert_of: dict[str, Certificate] = {}

    # ------------------------------------------------------------------
    # Issuance
    # ------------------------------------------------------------------
    def enroll(self, long_term_id: str, now: float, *, lifetime: float | None = None) -> Enrolment:
        """Issue a fresh key pair, pseudonym and certificate.

        ``long_term_id`` is the real (never transmitted) identity of the
        vehicle; the TA remembers the pseudonym mapping so it can pause
        renewals after a revocation.
        """
        obs = self.network.obs
        if long_term_id in self.paused:
            if obs is not None and obs.metrics is not None:
                obs.metrics.counter("ta.enrolments_refused", ta=self.ta_id).inc()
            raise PermissionError(
                f"renewals for {long_term_id!r} are paused (revoked attacker)"
            )
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("ta.enrolments", ta=self.ta_id).inc()
        keypair = generate_keypair(self._rng)
        pseudonym = self._pseudonyms.issue()
        life = DEFAULT_CERT_LIFETIME if lifetime is None else lifetime
        certificate = self._sign_certificate(
            pseudonym, keypair.public, now, now + life
        )
        self._issued.setdefault(long_term_id, []).append(certificate)
        self._owner_of[pseudonym] = long_term_id
        self._cert_of[pseudonym] = certificate
        return Enrolment(keypair, certificate)

    def renew(self, long_term_id: str, now: float, *, lifetime: float | None = None) -> Enrolment:
        """Issue a fresh pseudonym + certificate for an enrolled vehicle.

        Raises :class:`PermissionError` if the identity's renewals were
        paused by a revocation — the hook BlackDP's isolation phase uses
        to starve a detected attacker of new identities.
        """
        if long_term_id not in self._issued:
            raise KeyError(f"{long_term_id!r} was never enrolled at {self.ta_id}")
        return self.enroll(long_term_id, now, lifetime=lifetime)

    def enroll_infrastructure(self, node_id: str, now: float) -> Enrolment:
        """Issue an infrastructure (RSU) credential.

        RSUs keep their stable identity as the certificate subject (they
        are public, stationary devices with no privacy requirement) and
        carry ``role="rsu"``, which vehicles treat as the paper's trust
        anchor: replies signed under an RSU certificate come from a
        trusted node.
        """
        keypair = generate_keypair(self._rng)
        certificate = self._sign_certificate(
            node_id, keypair.public, now, now + 10 * DEFAULT_CERT_LIFETIME,
            role="rsu",
        )
        self._issued.setdefault(node_id, []).append(certificate)
        self._owner_of[node_id] = node_id
        self._cert_of[node_id] = certificate
        return Enrolment(keypair, certificate)

    def _sign_certificate(
        self,
        subject_id: str,
        public_key: PublicKey,
        issued_at: float,
        expires_at: float,
        *,
        role: str = "vehicle",
    ) -> Certificate:
        serial = self.network.next_serial()
        payload = certificate_payload(
            subject_id, public_key, serial, issued_at, expires_at, self.ta_id, role
        )
        signature = sign(self.network.root_keypair.private, payload)
        return Certificate(
            subject_id=subject_id,
            public_key=public_key,
            serial=serial,
            issued_at=issued_at,
            expires_at=expires_at,
            issuer_id=self.ta_id,
            signature=signature,
            role=role,
        )

    # ------------------------------------------------------------------
    # Revocation
    # ------------------------------------------------------------------
    def revoke(self, certificate: Certificate, *, reason: str = "black-hole") -> RevocationEntry:
        """Process a revocation request from a cluster head.

        Adds the certificate to this TA's CRL, pauses renewals for the
        long-term identity behind the pseudonym, and propagates the entry
        to every peer TA in the network.
        """
        entry = RevocationEntry(
            subject_id=certificate.subject_id,
            serial=certificate.serial,
            expires_at=certificate.expires_at,
            reason=reason,
        )
        self.network.propagate_revocation(entry)
        return entry

    def receive_revocation(self, entry: RevocationEntry) -> None:
        """Accept a propagated revocation from a peer TA.

        Also drops the revoked certificate's memoized signature from the
        process-wide cache: the next verification of that payload starts
        from first principles rather than a pre-revocation memo.
        """
        self.crl.add(entry)
        certificate = self._cert_of.get(entry.subject_id)
        if certificate is not None:
            signature_cache.invalidate(
                self.network.public_key, certificate.signed_payload()
            )
        owner = self._owner_of.get(entry.subject_id)
        if owner is not None:
            self.paused.add(owner)

    def pause_renewals(self, long_term_id: str) -> None:
        """Directly pause renewals for a long-term identity."""
        self.paused.add(long_term_id)

    def certificate_for(self, pseudonym: str) -> Certificate | None:
        """TA-private lookup of the certificate issued to a pseudonym
        (used when a CH requests revocation by pseudonym only)."""
        return self._cert_of.get(pseudonym)


class TrustedAuthorityNetwork:
    """The fog hierarchy of TA nodes with a shared root of trust.

    >>> import random
    >>> net = TrustedAuthorityNetwork(random.Random(0))
    >>> ta1 = net.add_authority("ta1")
    >>> ta2 = net.add_authority("ta2")
    >>> e = ta1.enroll("car-1", now=0.0)
    >>> e.certificate.verify_with(net.public_key, now=1.0)
    True
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self.root_keypair: KeyPair = generate_keypair(rng)
        self.authorities: dict[str, TrustedAuthority] = {}
        #: next certificate serial
        self._next_serial = 1
        #: cluster id -> TA id responsible for it
        self._region_of: dict[str, str] = {}
        #: optional observability hub (a :class:`repro.obs.Observability`);
        #: the TA network has no simulator reference, so the scenario
        #: builder attaches the hub explicitly when it wants TA metrics
        self.obs = None

    @property
    def public_key(self) -> PublicKey:
        """``K_TA+``: the well-known key every node verifies against."""
        return self.root_keypair.public

    def add_authority(self, ta_id: str) -> TrustedAuthority:
        """Create a TA node in this network."""
        if ta_id in self.authorities:
            raise ValueError(f"duplicate TA id {ta_id!r}")
        authority = TrustedAuthority(ta_id, self, self._rng)
        self.authorities[ta_id] = authority
        return authority

    def assign_region(self, ta_id: str, cluster_ids: list[str]) -> None:
        """Declare which clusters a TA node is responsible for."""
        if ta_id not in self.authorities:
            raise KeyError(f"unknown TA {ta_id!r}")
        for cluster_id in cluster_ids:
            self._region_of[cluster_id] = ta_id

    def authority_for_cluster(self, cluster_id: str) -> TrustedAuthority:
        """TA node responsible for ``cluster_id`` (first TA as fallback)."""
        ta_id = self._region_of.get(cluster_id)
        if ta_id is None:
            if not self.authorities:
                raise KeyError("network has no authorities")
            ta_id = next(iter(self.authorities))
        return self.authorities[ta_id]

    def next_serial(self) -> int:
        """Network-unique certificate serial numbers."""
        serial = self._next_serial
        self._next_serial = serial + 1
        return serial

    def propagate_revocation(self, entry) -> None:
        """Deliver a revocation entry to every TA node (paper: the TA
        "informs other trusted authority nodes to pause attacker renewal
        certificates")."""
        if self.obs is not None and self.obs.metrics is not None:
            self.obs.metrics.counter("ta.revocations_propagated").inc()
        for authority in self.authorities.values():
            authority.receive_revocation(entry)
