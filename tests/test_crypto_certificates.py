"""Tests for certificate issuance, verification and revocation lists."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import (
    CertificateError,
    RevocationEntry,
    RevocationList,
    SignatureCache,
    TrustedAuthorityNetwork,
    signature_cache,
)


def make_network(seed=0):
    net = TrustedAuthorityNetwork(random.Random(seed))
    ta = net.add_authority("ta1")
    return net, ta


def test_issued_certificate_verifies_with_root_key():
    net, ta = make_network()
    enrolment = ta.enroll("car-1", now=0.0)
    assert enrolment.certificate.verify_with(net.public_key, now=10.0)


def test_certificate_expires():
    net, ta = make_network()
    enrolment = ta.enroll("car-1", now=0.0, lifetime=50.0)
    cert = enrolment.certificate
    assert not cert.is_expired(49.9)
    assert cert.is_expired(50.0)
    assert not cert.verify_with(net.public_key, now=51.0)


def test_tampered_certificate_fails_verification():
    import dataclasses

    net, ta = make_network()
    cert = ta.enroll("car-1", now=0.0).certificate
    forged = dataclasses.replace(cert, subject_id="someone-else")
    assert not forged.verify_with(net.public_key, now=1.0)


def test_empty_lifetime_rejected():
    net, ta = make_network()
    with pytest.raises(CertificateError):
        ta.enroll("car-1", now=5.0, lifetime=0.0)


def test_serials_unique_across_tas():
    net = TrustedAuthorityNetwork(random.Random(0))
    ta1 = net.add_authority("ta1")
    ta2 = net.add_authority("ta2")
    serials = [
        ta1.enroll("a", now=0.0).certificate.serial,
        ta2.enroll("b", now=0.0).certificate.serial,
        ta1.enroll("c", now=0.0).certificate.serial,
    ]
    assert len(set(serials)) == 3


def test_pseudonyms_unique_per_enrolment():
    net, ta = make_network()
    ids = {ta.enroll(f"car-{i}", now=0.0).certificate.subject_id for i in range(50)}
    assert len(ids) == 50


def test_renewal_issues_fresh_pseudonym():
    net, ta = make_network()
    first = ta.enroll("car-1", now=0.0)
    second = ta.renew("car-1", now=10.0)
    assert first.certificate.subject_id != second.certificate.subject_id
    assert first.keypair.public != second.keypair.public


def test_renew_unknown_identity_raises():
    net, ta = make_network()
    with pytest.raises(KeyError):
        ta.renew("ghost", now=0.0)


def test_revocation_pauses_renewal_across_tas():
    net = TrustedAuthorityNetwork(random.Random(0))
    ta1 = net.add_authority("ta1")
    ta2 = net.add_authority("ta2")
    enrolment = ta1.enroll("attacker", now=0.0)
    ta2_enrolment = ta2.enroll("attacker", now=0.0)
    assert ta2_enrolment is not None
    ta1.revoke(enrolment.certificate)
    with pytest.raises(PermissionError):
        ta1.renew("attacker", now=5.0)
    # ta2 knew the pseudonym it issued, but ta1's pseudonym is unknown to
    # it; pausing at ta2 keys off ta2's own mapping
    assert ta1.crl.is_revoked_serial(enrolment.certificate.serial)
    assert ta2.crl.is_revoked_serial(enrolment.certificate.serial)


def test_region_assignment_routes_to_responsible_ta():
    net = TrustedAuthorityNetwork(random.Random(0))
    ta1 = net.add_authority("ta1")
    ta2 = net.add_authority("ta2")
    net.assign_region("ta1", ["c1", "c2"])
    net.assign_region("ta2", ["c3"])
    assert net.authority_for_cluster("c2") is ta1
    assert net.authority_for_cluster("c3") is ta2
    assert net.authority_for_cluster("c99") is ta1  # fallback: first TA


def test_revocation_list_prunes_expired():
    crl = RevocationList()
    crl.add(RevocationEntry("a", serial=1, expires_at=100.0))
    crl.add(RevocationEntry("b", serial=2, expires_at=200.0))
    assert crl.prune_expired(now=150.0) == 1
    assert not crl.is_revoked_serial(1)
    assert crl.is_revoked_serial(2)
    assert crl.is_revoked_id("b")
    assert not crl.is_revoked_id("a")


def test_revocation_list_merge_deduplicates():
    crl = RevocationList()
    entry = RevocationEntry("a", serial=1, expires_at=100.0)
    crl.add(entry)
    added = crl.merge([entry, RevocationEntry("b", serial=2, expires_at=50.0)])
    assert added == 1
    assert len(crl) == 2


@given(serials=st.lists(st.integers(0, 50), min_size=1, max_size=40))
def test_revocation_list_membership_matches_reference_set(serials):
    crl = RevocationList()
    reference = set()
    for serial in serials:
        crl.add(RevocationEntry(f"id-{serial}", serial=serial, expires_at=1e9))
        reference.add(serial)
    assert len(crl) == len(reference)
    for serial in range(51):
        assert crl.is_revoked_serial(serial) == (serial in reference)


@given(
    expiries=st.lists(st.floats(0.0, 1000.0, allow_nan=False), min_size=1, max_size=30),
    now=st.floats(0.0, 1000.0, allow_nan=False),
)
def test_prune_never_leaves_expired_entries(expiries, now):
    crl = RevocationList()
    for i, expiry in enumerate(expiries):
        crl.add(RevocationEntry(f"id-{i}", serial=i, expires_at=expiry))
    crl.prune_expired(now)
    assert all(entry.expires_at > now for entry in crl)


# ----------------------------------------------------------------------
# Memoized signature verification
# ----------------------------------------------------------------------
def test_signature_cache_hits_on_repeat_verification():
    net, ta = make_network()
    cert = ta.enroll("car-1", now=0.0).certificate
    signature_cache.clear()
    assert cert.verify_with(net.public_key, now=1.0)
    assert signature_cache.misses == 1
    for _ in range(5):
        assert cert.verify_with(net.public_key, now=1.0)
    assert signature_cache.hits == 5
    assert signature_cache.misses == 1


def test_forged_signature_fails_on_warm_cache():
    import dataclasses

    net, ta = make_network()
    cert = ta.enroll("car-1", now=0.0).certificate
    signature_cache.clear()
    assert cert.verify_with(net.public_key, now=1.0)  # warm the memo
    forged = dataclasses.replace(cert, signature=b"\x00" * 32)
    assert not forged.verify_with(net.public_key, now=1.0)
    truncated = dataclasses.replace(cert, signature=cert.signature[:-1])
    assert not truncated.verify_with(net.public_key, now=1.0)
    # The forged payload equals the genuine one, so the warm entry was
    # consulted — and the constant-time compare still rejected it.
    assert signature_cache.hits >= 1


def test_revocation_invalidates_cached_signature():
    net, ta = make_network()
    enrolment = ta.enroll("attacker", now=0.0)
    cert = enrolment.certificate
    signature_cache.clear()
    assert cert.verify_with(net.public_key, now=1.0)
    assert len(signature_cache) == 1
    ta.revoke(cert)
    assert signature_cache.invalidations == 1
    assert len(signature_cache) == 0
    # Post-revocation verification recomputes from first principles and
    # still reflects signature validity (revocation lives in the CRL).
    assert cert.verify_with(net.public_key, now=1.0)
    assert signature_cache.misses == 2


def test_signature_cache_lru_eviction():
    net, ta = make_network()
    cache = SignatureCache(maxsize=2)
    certs = [ta.enroll(f"car-{i}", now=0.0).certificate for i in range(3)]
    for cert in certs:
        assert cache.verify(net.public_key, cert.signed_payload(), cert.signature)
    assert len(cache) == 2  # oldest entry evicted
    assert cache.verify(
        net.public_key, certs[0].signed_payload(), certs[0].signature
    )
    assert cache.misses == 4  # the evicted entry recomputed


def test_signed_payload_memo_matches_recomputation():
    from repro.crypto.certificates import certificate_payload

    net, ta = make_network()
    cert = ta.enroll("car-1", now=0.0).certificate
    first = cert.signed_payload()
    assert cert.signed_payload() is first  # per-instance memo
    assert first == certificate_payload(
        cert.subject_id,
        cert.public_key,
        cert.serial,
        cert.issued_at,
        cert.expires_at,
        cert.issuer_id,
        cert.role,
    )
