"""Binary wire format for simulation packets.

The simulator passes packet objects by reference, but overhead accounting
and trace export need honest sizes, and a production deployment needs a
wire format.  This codec gives every packet type a compact, versioned
binary encoding:

``[magic u16] [version u8] [type u8] [body ...]``

Bodies are built from length-prefixed UTF-8 strings, fixed-width
integers (big-endian) and IEEE-754 doubles.  ``encode``/``decode`` are
exact inverses for every registered packet type (property-tested), and
``wire_size`` feeds the byte-level overhead metrics.

Certificates and signatures are encoded inline; a ``None`` optional
field costs one flag byte.

This module is the **single source of truth for field order**: every
body starts with the common ``src``/``dst`` strings (written by
``_common``) followed by type-specific fields in registration order.
"""

from __future__ import annotations

import struct
from typing import Callable

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
from repro.crypto.certificates import Certificate
from repro.crypto.keys import PublicKey
from repro.crypto.revocation import RevocationEntry
from repro.net.packets import Packet
from repro.routing.packets import (
    DataPacket,
    HelloBeacon,
    RouteError,
    RouteReply,
    RouteRequest,
)

_MAGIC = 0xB1DC
_VERSION = 1


class CodecError(ValueError):
    """Raised on malformed or unsupported wire data."""


# ----------------------------------------------------------------------
# Primitive writers / readers
# ----------------------------------------------------------------------
class _Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack(">B", value & 0xFF))

    def u16(self, value: int) -> None:
        self._parts.append(struct.pack(">H", value & 0xFFFF))

    def i64(self, value: int) -> None:
        self._parts.append(struct.pack(">q", value))

    def f64(self, value: float) -> None:
        self._parts.append(struct.pack(">d", value))

    def string(self, value: str) -> None:
        raw = value.encode()
        if len(raw) > 0xFFFF:
            raise CodecError(f"string too long for wire format: {len(raw)}")
        self.u16(len(raw))
        self._parts.append(raw)

    def blob(self, value: bytes) -> None:
        if len(value) > 0xFFFF:
            raise CodecError(f"blob too long for wire format: {len(value)}")
        self.u16(len(value))
        self._parts.append(value)

    def optional_blob(self, value: bytes | None) -> None:
        if value is None:
            self.u8(0)
        else:
            self.u8(1)
            self.blob(value)

    def optional_string(self, value: str | None) -> None:
        if value is None:
            self.u8(0)
        else:
            self.u8(1)
            self.string(value)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _take(self, count: int) -> bytes:
        if self._offset + count > len(self._data):
            raise CodecError("truncated packet")
        chunk = self._data[self._offset : self._offset + count]
        self._offset += count
        return chunk

    def u8(self) -> int:
        return struct.unpack(">B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack(">H", self._take(2))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def string(self) -> str:
        return self._take(self.u16()).decode()

    def blob(self) -> bytes:
        return self._take(self.u16())

    def optional_blob(self) -> bytes | None:
        return self.blob() if self.u8() else None

    def optional_string(self) -> str | None:
        return self.string() if self.u8() else None

    def done(self) -> bool:
        return self._offset == len(self._data)


# ----------------------------------------------------------------------
# Certificates / revocation entries
# ----------------------------------------------------------------------
def _write_certificate(writer: _Writer, certificate: Certificate | None) -> None:
    if certificate is None:
        writer.u8(0)
        return
    writer.u8(1)
    writer.string(certificate.subject_id)
    writer.blob(certificate.public_key.token)
    writer.i64(certificate.serial)
    writer.f64(certificate.issued_at)
    writer.f64(certificate.expires_at)
    writer.string(certificate.issuer_id)
    writer.blob(certificate.signature)
    writer.string(certificate.role)


def _read_certificate(reader: _Reader) -> Certificate | None:
    if not reader.u8():
        return None
    return Certificate(
        subject_id=reader.string(),
        public_key=PublicKey(reader.blob()),
        serial=reader.i64(),
        issued_at=reader.f64(),
        expires_at=reader.f64(),
        issuer_id=reader.string(),
        signature=reader.blob(),
        role=reader.string(),
    )


def _write_revocation(writer: _Writer, entry: RevocationEntry) -> None:
    writer.string(entry.subject_id)
    writer.i64(entry.serial)
    writer.f64(entry.expires_at)
    writer.string(entry.reason)


def _read_revocation(reader: _Reader) -> RevocationEntry:
    return RevocationEntry(
        subject_id=reader.string(),
        serial=reader.i64(),
        expires_at=reader.f64(),
        reason=reader.string(),
    )


# ----------------------------------------------------------------------
# Per-type body codecs
# ----------------------------------------------------------------------
def _common(writer: _Writer, packet: Packet) -> None:
    writer.string(packet.src)
    writer.string(packet.dst)


def _read_common(reader: _Reader) -> dict[str, str]:
    return {"src": reader.string(), "dst": reader.string()}


def _encode_rreq(w: _Writer, p: RouteRequest) -> None:
    _common(w, p)
    w.string(p.originator)
    w.i64(p.originator_seq)
    w.string(p.destination)
    w.i64(p.destination_seq)
    w.i64(p.hop_count)
    w.i64(p.rreq_id)
    w.u8(1 if p.request_next_hop else 0)
    w.optional_string(p.claim_check)


def _decode_rreq(r: _Reader) -> RouteRequest:
    return RouteRequest(
        **_read_common(r),
        originator=r.string(),
        originator_seq=r.i64(),
        destination=r.string(),
        destination_seq=r.i64(),
        hop_count=r.i64(),
        rreq_id=r.i64(),
        request_next_hop=bool(r.u8()),
        claim_check=r.optional_string(),
    )


def _encode_rrep(w: _Writer, p: RouteReply) -> None:
    _common(w, p)
    w.string(p.originator)
    w.string(p.destination)
    w.i64(p.destination_seq)
    w.i64(p.hop_count)
    w.f64(p.lifetime)
    w.string(p.replied_by)
    w.optional_string(p.next_hop_claim)
    w.i64(p.cluster_of_replier)
    _write_certificate(w, p.certificate)
    w.optional_blob(p.signature)


def _decode_rrep(r: _Reader) -> RouteReply:
    return RouteReply(
        **_read_common(r),
        originator=r.string(),
        destination=r.string(),
        destination_seq=r.i64(),
        hop_count=r.i64(),
        lifetime=r.f64(),
        replied_by=r.string(),
        next_hop_claim=r.optional_string(),
        cluster_of_replier=r.i64(),
        certificate=_read_certificate(r),
        signature=r.optional_blob(),
    )


def _encode_rerr(w: _Writer, p: RouteError) -> None:
    _common(w, p)
    w.u16(len(p.unreachable))
    for destination, seq in p.unreachable:
        w.string(destination)
        w.i64(seq)


def _decode_rerr(r: _Reader) -> RouteError:
    common = _read_common(r)
    unreachable = [(r.string(), r.i64()) for _ in range(r.u16())]
    return RouteError(**common, unreachable=unreachable)


def _encode_beacon(w: _Writer, p: HelloBeacon) -> None:
    _common(w, p)
    w.string(p.originator)
    w.i64(p.originator_seq)


def _decode_beacon(r: _Reader) -> HelloBeacon:
    return HelloBeacon(
        **_read_common(r), originator=r.string(), originator_seq=r.i64()
    )


def _encode_data(w: _Writer, p: DataPacket) -> None:
    _common(w, p)
    w.string(p.originator)
    w.string(p.final_destination)
    w.i64(p.hops_travelled)
    w.optional_string(None if p.payload is None else str(p.payload))


def _decode_data(r: _Reader) -> DataPacket:
    return DataPacket(
        **_read_common(r),
        originator=r.string(),
        final_destination=r.string(),
        hops_travelled=r.i64(),
        payload=r.optional_string(),
    )


def _encode_jreq(w: _Writer, p: JoinRequest) -> None:
    _common(w, p)
    w.f64(p.speed)
    w.f64(p.position[0])
    w.f64(p.position[1])
    w.i64(p.direction)


def _decode_jreq(r: _Reader) -> JoinRequest:
    return JoinRequest(
        **_read_common(r),
        speed=r.f64(),
        position=(r.f64(), r.f64()),
        direction=r.i64(),
    )


def _encode_jrep(w: _Writer, p: JoinReply) -> None:
    _common(w, p)
    w.string(p.cluster_head)
    w.i64(p.cluster_index)


def _decode_jrep(r: _Reader) -> JoinReply:
    return JoinReply(
        **_read_common(r), cluster_head=r.string(), cluster_index=r.i64()
    )


def _encode_leave(w: _Writer, p: LeaveNotice) -> None:
    _common(w, p)


def _decode_leave(r: _Reader) -> LeaveNotice:
    return LeaveNotice(**_read_common(r))


def _encode_hello(w: _Writer, p: SecureHello) -> None:
    _common(w, p)
    w.string(p.originator)
    w.string(p.target)
    w.i64(p.nonce)
    _write_certificate(w, p.certificate)
    w.optional_blob(p.signature)


def _decode_hello(r: _Reader) -> SecureHello:
    return SecureHello(
        **_read_common(r),
        originator=r.string(),
        target=r.string(),
        nonce=r.i64(),
        certificate=_read_certificate(r),
        signature=r.optional_blob(),
    )


def _encode_hello_reply(w: _Writer, p: HelloReply) -> None:
    _common(w, p)
    w.string(p.originator)
    w.string(p.responder)
    w.i64(p.nonce)
    _write_certificate(w, p.certificate)
    w.optional_blob(p.signature)


def _decode_hello_reply(r: _Reader) -> HelloReply:
    return HelloReply(
        **_read_common(r),
        originator=r.string(),
        responder=r.string(),
        nonce=r.i64(),
        certificate=_read_certificate(r),
        signature=r.optional_blob(),
    )


def _encode_dreq(w: _Writer, p: DetectionRequest) -> None:
    _common(w, p)
    w.string(p.reporter)
    w.i64(p.reporter_cluster)
    w.string(p.suspect)
    w.i64(p.suspect_cluster)
    _write_certificate(w, p.suspect_certificate)


def _decode_dreq(r: _Reader) -> DetectionRequest:
    return DetectionRequest(
        **_read_common(r),
        reporter=r.string(),
        reporter_cluster=r.i64(),
        suspect=r.string(),
        suspect_cluster=r.i64(),
        suspect_certificate=_read_certificate(r),
    )


def _encode_dfwd(w: _Writer, p: DetectionForward) -> None:
    _common(w, p)
    w.string(p.reporter)
    w.i64(p.reporter_cluster)
    w.string(p.suspect)
    w.i64(p.suspect_cluster)
    _write_certificate(w, p.suspect_certificate)
    w.string(p.phase)
    w.u8(0 if p.rrep1_seq is None else 1)
    if p.rrep1_seq is not None:
        w.i64(p.rrep1_seq)
    w.i64(p.packets_so_far)
    w.u16(len(p.packet_breakdown))
    for label in p.packet_breakdown:
        w.string(label)
    w.i64(p.forwards_used)
    w.i64(p.direction)


def _decode_dfwd(r: _Reader) -> DetectionForward:
    common = _read_common(r)
    reporter = r.string()
    reporter_cluster = r.i64()
    suspect = r.string()
    suspect_cluster = r.i64()
    certificate = _read_certificate(r)
    phase = r.string()
    rrep1_seq = r.i64() if r.u8() else None
    packets_so_far = r.i64()
    breakdown = [r.string() for _ in range(r.u16())]
    return DetectionForward(
        **common,
        reporter=reporter,
        reporter_cluster=reporter_cluster,
        suspect=suspect,
        suspect_cluster=suspect_cluster,
        suspect_certificate=certificate,
        phase=phase,
        rrep1_seq=rrep1_seq,
        packets_so_far=packets_so_far,
        packet_breakdown=breakdown,
        forwards_used=r.i64(),
        direction=r.i64(),
    )


def _encode_dres(w: _Writer, p: DetectionResult) -> None:
    _common(w, p)
    w.string(p.reporter)
    w.string(p.suspect)
    w.string(p.verdict)
    w.u16(len(p.cooperative_with))
    for address in p.cooperative_with:
        w.string(address)
    w.u8(1 if p.relay else 0)


def _decode_dres(r: _Reader) -> DetectionResult:
    return DetectionResult(
        **_read_common(r),
        reporter=r.string(),
        suspect=r.string(),
        verdict=r.string(),
        cooperative_with=[r.string() for _ in range(r.u16())],
        relay=bool(r.u8()),
    )


def _encode_notice(w: _Writer, p: RevocationNoticePacket) -> None:
    _common(w, p)
    w.u16(len(p.entries))
    for entry in p.entries:
        _write_revocation(w, entry)
    w.i64(p.hops_remaining)


def _decode_notice(r: _Reader) -> RevocationNoticePacket:
    common = _read_common(r)
    entries = [_read_revocation(r) for _ in range(r.u16())]
    return RevocationNoticePacket(
        **common, entries=entries, hops_remaining=r.i64()
    )


def _encode_warning(w: _Writer, p: MemberWarning) -> None:
    _common(w, p)
    w.u16(len(p.revoked_ids))
    for revoked in p.revoked_ids:
        w.string(revoked)


def _decode_warning(r: _Reader) -> MemberWarning:
    return MemberWarning(
        **_read_common(r), revoked_ids=[r.string() for _ in range(r.u16())]
    )


#: type tag -> (packet class, encoder, decoder)
_REGISTRY: dict[int, tuple[type, Callable, Callable]] = {
    1: (RouteRequest, _encode_rreq, _decode_rreq),
    2: (RouteReply, _encode_rrep, _decode_rrep),
    3: (RouteError, _encode_rerr, _decode_rerr),
    4: (HelloBeacon, _encode_beacon, _decode_beacon),
    5: (DataPacket, _encode_data, _decode_data),
    6: (JoinRequest, _encode_jreq, _decode_jreq),
    7: (JoinReply, _encode_jrep, _decode_jrep),
    8: (LeaveNotice, _encode_leave, _decode_leave),
    9: (SecureHello, _encode_hello, _decode_hello),
    10: (HelloReply, _encode_hello_reply, _decode_hello_reply),
    11: (DetectionRequest, _encode_dreq, _decode_dreq),
    12: (DetectionForward, _encode_dfwd, _decode_dfwd),
    13: (DetectionResult, _encode_dres, _decode_dres),
    14: (RevocationNoticePacket, _encode_notice, _decode_notice),
    15: (MemberWarning, _encode_warning, _decode_warning),
}
_TAG_OF = {cls: tag for tag, (cls, _e, _d) in _REGISTRY.items()}


def encode(packet: Packet) -> bytes:
    """Serialise ``packet`` to its wire form."""
    tag = _TAG_OF.get(type(packet))
    if tag is None:
        raise CodecError(f"no codec registered for {type(packet).__name__}")
    writer = _Writer()
    writer.u16(_MAGIC)
    writer.u8(_VERSION)
    writer.u8(tag)
    _REGISTRY[tag][1](writer, packet)
    return writer.getvalue()


def decode(data: bytes) -> Packet:
    """Parse wire data back into a packet object.

    The decoded packet is field-equal to the original except for ``uid``
    (instance ids are local) and ``size_bytes`` (set to the true wire
    size).
    """
    reader = _Reader(data)
    if reader.u16() != _MAGIC:
        raise CodecError("bad magic")
    version = reader.u8()
    if version != _VERSION:
        raise CodecError(f"unsupported codec version {version}")
    tag = reader.u8()
    entry = _REGISTRY.get(tag)
    if entry is None:
        raise CodecError(f"unknown packet type tag {tag}")
    try:
        packet = entry[2](reader)
    except CodecError:
        raise
    except (UnicodeDecodeError, ValueError, struct.error) as error:
        # Malformed body bytes must surface as a codec rejection, never
        # as a library-internal exception.
        raise CodecError(f"malformed packet body: {error}") from error
    if not reader.done():
        raise CodecError("trailing bytes after packet body")
    packet.size_bytes = len(data)
    packet._wire_size = len(data)
    return packet


def wire_size(packet: Packet) -> int:
    """True byte size of ``packet`` on the wire.

    Memoised per packet instance: floods retransmit the same object at
    every hop, and packets are treated as frozen once transmitted, so
    the first encode's length is cached on the instance (mutating a
    packet after sending it does not invalidate the cache).  ``decode``
    seeds the cache with the parsed buffer's length.
    """
    cached = getattr(packet, "_wire_size", None)
    if cached is None:
        cached = len(encode(packet))
        packet._wire_size = cached
    return cached
