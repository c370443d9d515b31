"""Envelope format for world snapshots.

A snapshot is a self-describing binary blob::

    MAGIC (8 bytes) | header length (u32, big-endian) | header JSON | payload

The header is canonical JSON (sorted keys) carrying the schema version,
the codec used for the payload, simulation metadata (virtual time, root
seed, stream names) and an integrity hash of the payload.  The payload
is a pickled object graph, optionally zlib-compressed.

Why pickle?  A :class:`~repro.experiments.world.World` is a densely
cross-referenced object graph — nodes hold the network, the network
holds the nodes, pending events hold bound methods of both — and pickle
is the only serializer that restores *shared references* faithfully,
which the golden-trace guarantee (restore-then-run is byte-identical to
run-straight-through) depends on.  The codebase keeps every piece of
live state picklable (no lambdas or closures survive in world state; see
``docs/checkpointing.md``), and the envelope adds what raw pickle
lacks: versioning, integrity checking, and inspectable metadata.

Schema history
--------------
1: initial format.  Bump whenever the shape of pickled world
   state changes incompatibly; old snapshots are then *rejected* with
   :class:`SnapshotSchemaError` instead of deserializing garbage.
2: no ``itertools`` counters in the payload: the event queue's sequence
   counter, the certificate serial counter and the packet-uid position
   are plain integers; event queues count deferred delivery-train legs.
3: event queues hold no freelist and always own a timer wheel; events
   carry no pool generation; the globals drop the wire-intern counters.
4: the network's backbone is a plain map from RSU address to its wired
   peers instead of a graph object.
5: routing-table entries are slotted, so they pickle without an
   instance dict, and an entry with no precursors holds an empty
   ``frozenset``.
6: a network keeps a table of its in-flight delivery trains by event;
   simulators carry the (idle) drain horizon and ``max_events`` limit
   of the event loop.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import pickletools
import zlib
from dataclasses import dataclass, field

#: Current snapshot schema.  Restore refuses anything else.
SNAPSHOT_SCHEMA = 7

#: Fixed pickle protocol so snapshot bytes do not depend on the writing
#: interpreter's default.
PICKLE_PROTOCOL = 4

MAGIC = b"BDPSNAP\x00"

_CODEC_PLAIN = "pickle"
_CODEC_ZLIB = "pickle+zlib"


class SnapshotError(RuntimeError):
    """Base error for snapshot encode/decode problems."""


class SnapshotSchemaError(SnapshotError):
    """The snapshot was written under a different (stale) schema."""


class SnapshotIntegrityError(SnapshotError):
    """The snapshot is truncated or its payload hash does not match."""


class SnapshotPicklingError(SnapshotError):
    """Some object in the world graph cannot be serialized."""


@dataclass(frozen=True)
class SnapshotInfo:
    """Decoded header metadata (available without unpickling anything)."""

    schema: int
    codec: str
    sim_time: float | None
    seed: int | None
    streams: tuple[str, ...]
    payload_bytes: int
    payload_sha256: str
    extra: dict = field(default_factory=dict)


def encode(
    root: object,
    *,
    sim_time: float | None = None,
    seed: int | None = None,
    streams: tuple[str, ...] = (),
    compress: bool = True,
    extra: dict | None = None,
) -> bytes:
    """Serialize ``root`` into a schema-versioned snapshot blob."""
    buffer = io.BytesIO()
    try:
        pickle.Pickler(buffer, protocol=PICKLE_PROTOCOL).dump(root)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise SnapshotPicklingError(
            f"world state is not serializable: {error} — live state must "
            "not hold lambdas, nested-function closures, open files or "
            "thread handles (see docs/checkpointing.md)"
        ) from error
    payload = buffer.getvalue()
    codec = _CODEC_PLAIN
    if compress:
        payload = zlib.compress(payload, 6)
        codec = _CODEC_ZLIB
    header = {
        "schema": SNAPSHOT_SCHEMA,
        "codec": codec,
        "pickle_protocol": PICKLE_PROTOCOL,
        "sim_time": sim_time,
        "seed": seed,
        "streams": list(streams),
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "extra": extra or {},
    }
    header_blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join(
        [MAGIC, len(header_blob).to_bytes(4, "big"), header_blob, payload]
    )


def _split(data: bytes) -> tuple[dict, bytes]:
    if len(data) < len(MAGIC) + 4 or not data.startswith(MAGIC):
        raise SnapshotIntegrityError("not a snapshot: bad magic")
    offset = len(MAGIC)
    header_len = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    header_blob = data[offset : offset + header_len]
    if len(header_blob) != header_len:
        raise SnapshotIntegrityError("truncated snapshot header")
    try:
        header = json.loads(header_blob)
    except ValueError as error:
        raise SnapshotIntegrityError(f"corrupt snapshot header: {error}") from error
    return header, data[offset + header_len :]


def info(data: bytes) -> SnapshotInfo:
    """Decode header metadata only (schema, time, seed, sizes)."""
    header, payload = _split(data)
    return SnapshotInfo(
        schema=header.get("schema", -1),
        codec=header.get("codec", ""),
        sim_time=header.get("sim_time"),
        seed=header.get("seed"),
        streams=tuple(header.get("streams", ())),
        payload_bytes=len(payload),
        payload_sha256=header.get("payload_sha256", ""),
        extra=header.get("extra", {}),
    )


def decode(data: bytes) -> object:
    """Validate and deserialize a snapshot blob back into its root object.

    Raises
    ------
    SnapshotSchemaError:
        when the blob was written under a different schema version.
    SnapshotIntegrityError:
        when the blob is truncated or its payload hash mismatches.
    """
    header, payload = _split(data)
    schema = header.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotSchemaError(
            f"snapshot schema {schema!r} is not the current "
            f"{SNAPSHOT_SCHEMA}; re-create the snapshot with this build"
        )
    if len(payload) != header.get("payload_bytes"):
        raise SnapshotIntegrityError(
            f"truncated snapshot payload: have {len(payload)} bytes, "
            f"header promises {header.get('payload_bytes')}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise SnapshotIntegrityError("snapshot payload hash mismatch")
    codec = header.get("codec")
    if codec == _CODEC_ZLIB:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as error:
            raise SnapshotIntegrityError(
                f"corrupt compressed payload: {error}"
            ) from error
    elif codec != _CODEC_PLAIN:
        raise SnapshotSchemaError(f"unknown snapshot codec {codec!r}")
    try:
        return pickle.loads(payload)
    except Exception as error:  # unpickling failures are data corruption
        raise SnapshotIntegrityError(
            f"cannot deserialize snapshot payload: {error}"
        ) from error


def stable_digest(root: object) -> str:
    """Content hash of an object graph's canonical pickle.

    ``pickletools.optimize`` strips redundant PUT opcodes, so the digest
    is a function of the graph's *content and topology* rather than of
    pickler memo accidents.  Used by tests asserting that two worlds
    carry identical state.
    """
    blob = pickle.dumps(root, protocol=PICKLE_PROTOCOL)
    return hashlib.sha256(pickletools.optimize(blob)).hexdigest()
