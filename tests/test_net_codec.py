"""Round-trip and robustness tests for the binary packet codec."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusters.packets import JoinReply, JoinRequest, LeaveNotice
from repro.core.packets import (
    DetectionForward,
    DetectionRequest,
    DetectionResult,
    HelloReply,
    MemberWarning,
    RevocationNoticePacket,
    SecureHello,
)
from repro.crypto import RevocationEntry, TrustedAuthorityNetwork
from repro.net import Packet
from repro.net.codec import CodecError, decode, encode, wire_size
from repro.routing.packets import (
    DataPacket,
    HelloBeacon,
    RouteError,
    RouteReply,
    RouteRequest,
)


def certificate():
    net = TrustedAuthorityNetwork(random.Random(0))
    ta = net.add_authority("ta1")
    return ta.enroll("veh", now=0.0).certificate


def roundtrip_equal(packet):
    decoded = decode(encode(packet))
    ours = dataclasses.asdict(packet)
    theirs = dataclasses.asdict(decoded)
    for volatile in ("uid", "size_bytes", "_wire_size"):
        ours.pop(volatile)
        theirs.pop(volatile)
    assert ours == theirs
    return decoded


SAMPLE_PACKETS = [
    RouteRequest(src="a", dst="*", originator="a", originator_seq=3,
                 destination="d", destination_seq=-1, hop_count=2, rreq_id=7,
                 request_next_hop=True, claim_check="b1"),
    RouteError(src="a", dst="*", unreachable=[("d1", 4), ("d2", 9)]),
    HelloBeacon(src="a", dst="*", originator="a", originator_seq=12),
    DataPacket(src="a", dst="b", originator="a", final_destination="z",
               payload="hello world", hops_travelled=3),
    JoinRequest(src="v", dst="*", speed=25.0, position=(1234.5, 75.0),
                direction=-1),
    JoinReply(src="rsu-3", dst="v", cluster_head="rsu-3", cluster_index=3),
    LeaveNotice(src="v", dst="rsu-3"),
    DetectionResult(src="rsu-3", dst="v", reporter="v", suspect="b",
                    verdict="black-hole", cooperative_with=["b2"], relay=True),
    MemberWarning(src="rsu-3", dst="*", revoked_ids=["b1", "b2"]),
    RevocationNoticePacket(
        src="rsu-3", dst="rsu-4",
        entries=[RevocationEntry("b1", serial=-3, expires_at=99.5)],
        hops_remaining=2,
    ),
]


def certificate_packets():
    """One certificate-bearing sample of each type that carries one."""
    cert = certificate()
    return [
        RouteReply(src="b", dst="a", originator="a", destination="d",
                   destination_seq=120, hop_count=1, lifetime=30.0,
                   replied_by="b", next_hop_claim="b2", cluster_of_replier=4,
                   certificate=cert, signature=b"\x01" * 32),
        SecureHello(src="a", dst="b", originator="a", target="d", nonce=17,
                    certificate=cert, signature=b"s" * 32),
        HelloReply(src="d", dst="b", originator="a", responder="d", nonce=17,
                   certificate=cert, signature=b"s" * 32),
        DetectionRequest(src="v", dst="rsu-1", reporter="v", reporter_cluster=1,
                         suspect="b", suspect_cluster=3,
                         suspect_certificate=cert),
        DetectionForward(src="rsu-1", dst="rsu-3", reporter="v",
                         reporter_cluster=1, suspect="b", suspect_cluster=3,
                         suspect_certificate=cert, phase="probe2",
                         rrep1_seq=250, packets_so_far=4,
                         packet_breakdown=["d_req", "RREQ_1"],
                         forwards_used=1, direction=1),
    ]


@pytest.mark.parametrize("packet", SAMPLE_PACKETS, ids=lambda p: p.kind)
def test_roundtrip_simple_packets(packet):
    roundtrip_equal(packet)


def test_roundtrip_secure_rrep():
    cert = certificate()
    packet = RouteReply(
        src="b", dst="a", originator="a", destination="d",
        destination_seq=120, hop_count=1, lifetime=30.0, replied_by="b",
        next_hop_claim="b2", cluster_of_replier=4,
        certificate=cert, signature=b"\x01" * 32,
    )
    decoded = roundtrip_equal(packet)
    assert decoded.certificate.verify_with is not None
    assert decoded.is_secure


def test_roundtrip_insecure_rrep():
    packet = RouteReply(src="b", dst="a", originator="a", destination="d",
                        destination_seq=7, hop_count=2, replied_by="b")
    decoded = roundtrip_equal(packet)
    assert not decoded.is_secure


def test_roundtrip_secure_hello_and_reply():
    cert = certificate()
    roundtrip_equal(SecureHello(src="a", dst="b", originator="a", target="d",
                                nonce=17, certificate=cert, signature=b"s" * 32))
    roundtrip_equal(HelloReply(src="d", dst="b", originator="a", responder="d",
                               nonce=17, certificate=cert, signature=b"s" * 32))


def test_roundtrip_detection_request_and_forward():
    cert = certificate()
    roundtrip_equal(DetectionRequest(
        src="v", dst="rsu-1", reporter="v", reporter_cluster=1,
        suspect="b", suspect_cluster=3, suspect_certificate=cert,
    ))
    roundtrip_equal(DetectionForward(
        src="rsu-1", dst="rsu-3", reporter="v", reporter_cluster=1,
        suspect="b", suspect_cluster=3, suspect_certificate=cert,
        phase="probe2", rrep1_seq=250, packets_so_far=4,
        packet_breakdown=["d_req", "forward", "RREQ_1", "RREP_1"],
        forwards_used=1, direction=1,
    ))


def test_decoded_size_matches_wire_size():
    packet = SAMPLE_PACKETS[0]
    data = encode(packet)
    assert decode(data).size_bytes == len(data) == wire_size(packet)


def test_unregistered_type_rejected():
    with pytest.raises(CodecError):
        encode(Packet(src="a", dst="b"))


def test_bad_magic_rejected():
    with pytest.raises(CodecError, match="magic"):
        decode(b"\x00\x00\x01\x01")


def test_bad_version_rejected():
    data = bytearray(encode(SAMPLE_PACKETS[0]))
    data[2] = 99
    with pytest.raises(CodecError, match="version"):
        decode(bytes(data))


def test_unknown_tag_rejected():
    data = bytearray(encode(SAMPLE_PACKETS[0]))
    data[3] = 200
    with pytest.raises(CodecError, match="tag"):
        decode(bytes(data))


def test_truncated_packet_rejected():
    data = encode(SAMPLE_PACKETS[0])
    with pytest.raises(CodecError):
        decode(data[: len(data) // 2])


@pytest.mark.parametrize(
    "packet", SAMPLE_PACKETS + certificate_packets(), ids=lambda p: p.kind
)
def test_every_truncated_body_prefix_rejected(packet):
    """Body reads are sequential and consume the exact encoded length,
    so *every* strict prefix must surface as a CodecError — never a
    silent short parse or a library-internal exception."""
    data = encode(packet)
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            decode(data[:cut])


def test_registry_has_no_untested_packet_type():
    """Audit: every registered wire type must appear in the round-trip
    coverage above, so adding a codec entry without a test fails here."""
    from repro.net.codec import _REGISTRY

    covered = {type(packet) for packet in SAMPLE_PACKETS}
    # types exercised by the dedicated certificate-bearing tests
    covered |= {RouteReply, SecureHello, HelloReply,
                DetectionRequest, DetectionForward}
    registered = {cls for cls, _encode, _decode in _REGISTRY.values()}
    assert registered <= covered, (
        f"registered packet types without a round-trip test: "
        f"{[cls.__name__ for cls in registered - covered]}"
    )


def test_trailing_bytes_rejected():
    data = encode(SAMPLE_PACKETS[0]) + b"junk"
    with pytest.raises(CodecError, match="trailing"):
        decode(data)


@settings(max_examples=60, deadline=None)
@given(
    originator=st.text(max_size=30),
    destination=st.text(max_size=30),
    originator_seq=st.integers(-(2**31), 2**31),
    destination_seq=st.integers(-(2**31), 2**31),
    hop_count=st.integers(0, 1000),
    request_next_hop=st.booleans(),
    claim=st.none() | st.text(max_size=20),
)
def test_rreq_roundtrip_property(originator, destination, originator_seq,
                                 destination_seq, hop_count,
                                 request_next_hop, claim):
    packet = RouteRequest(
        src=originator, dst="*", originator=originator,
        originator_seq=originator_seq, destination=destination,
        destination_seq=destination_seq, hop_count=hop_count, rreq_id=1,
        request_next_hop=request_next_hop, claim_check=claim,
    )
    roundtrip_equal(packet)


@settings(max_examples=40, deadline=None)
@given(
    ids=st.lists(st.text(max_size=15), max_size=10),
)
def test_warning_roundtrip_property(ids):
    roundtrip_equal(MemberWarning(src="r", dst="*", revoked_ids=ids))


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=40, deadline=None)
@given(
    speed=_finite,
    x=_finite,
    y=_finite,
    direction=st.sampled_from([-1, 1]),
)
def test_join_request_roundtrip_property(speed, x, y, direction):
    roundtrip_equal(JoinRequest(src="v", dst="*", speed=speed,
                                position=(x, y), direction=direction))


@settings(max_examples=40, deadline=None)
@given(
    cluster_head=st.text(max_size=20),
    cluster_index=st.integers(0, 2**31),
)
def test_join_reply_roundtrip_property(cluster_head, cluster_index):
    roundtrip_equal(JoinReply(src="r", dst="v", cluster_head=cluster_head,
                              cluster_index=cluster_index))


@settings(max_examples=20, deadline=None)
@given(src=st.text(max_size=20), dst=st.text(max_size=20))
def test_leave_notice_roundtrip_property(src, dst):
    roundtrip_equal(LeaveNotice(src=src, dst=dst))


@settings(max_examples=40, deadline=None)
@given(
    payload=st.none() | st.text(max_size=40),
    hops=st.integers(0, 255),
)
def test_data_packet_roundtrip_property(payload, hops):
    roundtrip_equal(DataPacket(src="a", dst="b", originator="a",
                               final_destination="z", payload=payload,
                               hops_travelled=hops))


@settings(max_examples=40, deadline=None)
@given(
    unreachable=st.lists(
        st.tuples(st.text(max_size=15), st.integers(-(2**31), 2**31)),
        max_size=8,
    ),
)
def test_route_error_roundtrip_property(unreachable):
    roundtrip_equal(RouteError(src="a", dst="*", unreachable=unreachable))


@settings(max_examples=40, deadline=None)
@given(junk=st.binary(min_size=0, max_size=160))
def test_arbitrary_bytes_never_crash_decoder(junk):
    try:
        decode(junk)
    except CodecError:
        pass  # rejection is the expected path


def test_wire_size_memoised_per_instance(monkeypatch):
    import repro.net.codec as codec

    packet = HelloBeacon(src="a", dst="*", originator="a", originator_seq=1)
    calls = []
    real_encode = codec.encode
    monkeypatch.setattr(
        codec, "encode", lambda p: calls.append(1) or real_encode(p)
    )
    first = wire_size(packet)
    second = wire_size(packet)
    assert first == second == len(real_encode(packet))
    assert len(calls) == 1  # the second call hit the memo


def test_decode_seeds_wire_size_memo(monkeypatch):
    import repro.net.codec as codec

    data = encode(SAMPLE_PACKETS[0])
    decoded = decode(data)
    monkeypatch.setattr(codec, "encode", lambda p: pytest.fail("re-encoded"))
    assert wire_size(decoded) == len(data)
