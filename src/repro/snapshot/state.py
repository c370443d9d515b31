"""World-level snapshot API: capture, restore, fork.

``snapshot(world)`` serializes a complete simulation — the event heap
and the timer wheel every queue owns (cancelled-corpse bookkeeping and
deferred delivery-train legs included), every named
RNG stream, network and spatial-index attachment state, routing tables,
crypto material (keys, certificates, pseudonym and revocation state),
cluster/RSU and detection-case state — into one schema-versioned blob.
``restore`` rebuilds an equivalent live world; running it forward is
byte-identical to having never paused (the golden-trace guarantee,
pinned by ``tests/test_snapshot_equivalence.py``).

Process-global counters
-----------------------
Two module-level allocators feed monotonic ids into packets and
synthetic revocation serials.  They are *process* state, not world
state, so a snapshot records their position (the packet allocator as
the next uid it will hand out) and ``restore`` rewinds
them — otherwise a resumed run would draw different packet uids than
the uninterrupted run it must match.  Rewinding globals makes restore a
process-wide operation: run one restored world at a time per process
(which the trial executor's process-per-worker model already enforces).
"""

from __future__ import annotations

from typing import Any

from repro.snapshot import codec
from repro.snapshot.codec import SnapshotInfo


def capture_globals() -> dict[str, Any]:
    """Pickle-ready capture of process-global allocator positions."""
    import repro.core.examiner as examiner
    import repro.net.packets as packets

    return {
        "net.packet_ids": packets.packet_id_position(),
        "core.synthetic_serials": examiner._synthetic_serials,
    }


def apply_globals(captured: dict[str, Any]) -> None:
    """Rewind process-global allocators to a captured position."""
    import repro.core.examiner as examiner
    import repro.net.packets as packets

    if "net.packet_ids" in captured:
        packets.set_packet_id_position(captured["net.packet_ids"])
    if "core.synthetic_serials" in captured:
        examiner._synthetic_serials = captured["core.synthetic_serials"]


def _sim_of(root: object):
    sim = getattr(root, "sim", None)
    if sim is None:
        world = getattr(root, "world", None)
        sim = getattr(world, "sim", None)
    return sim


def snapshot(
    root: object, *, compress: bool = True, extra: dict | None = None
) -> bytes:
    """Serialize ``root`` (a ``World``, ``TrialSession``, or any picklable
    simulation object graph) plus the process-global allocators."""
    sim = _sim_of(root)
    payload = {"root": root, "globals": capture_globals()}
    return codec.encode(
        payload,
        sim_time=None if sim is None else sim.now,
        seed=None if sim is None else sim.streams.seed,
        streams=() if sim is None else tuple(sim.streams.names()),
        compress=compress,
        extra=extra,
    )


def restore(data: bytes, *, restore_globals: bool = True) -> Any:
    """Rebuild the object graph captured by :func:`snapshot`.

    ``restore_globals=True`` (default) also rewinds the process-global
    allocators to their captured position, which the golden-trace
    guarantee requires.  Pass ``False`` only when inspecting a snapshot
    alongside a run you do not want perturbed.
    """
    payload = codec.decode(data)
    if restore_globals:
        apply_globals(payload["globals"])
    return payload["root"]


def snapshot_info(data: bytes) -> SnapshotInfo:
    """Header metadata (schema, sim time, seed, sizes) without unpickling."""
    return codec.info(data)


class ForkPoint:
    """A reusable fork-at-time capture.

    Capture a warmed world once, then materialize any number of
    independent copies of it — each fork rewinds the process-global
    allocators to the capture point, so every fork's future is
    *identical* regardless of what earlier forks did::

        point = ForkPoint(world)         # after sim.run(until=warmup)
        for arm in treatments:
            w = point.fork()             # fresh, independent world
            ...apply arm, run w...

    Forks default to an uncompressed capture: fork-at-time exists to be
    cheaper than re-warming, so it skips zlib on the hot path.
    """

    def __init__(self, root: object, *, compress: bool = False) -> None:
        self._blob = snapshot(root, compress=compress)

    @property
    def nbytes(self) -> int:
        """Size of the captured blob in bytes."""
        return len(self._blob)

    @property
    def blob(self) -> bytes:
        """The underlying snapshot blob (writable to disk as-is)."""
        return self._blob

    def info(self) -> SnapshotInfo:
        return codec.info(self._blob)

    def fork(self) -> Any:
        """Materialize one independent copy of the captured state."""
        return restore(self._blob)
