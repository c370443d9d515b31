"""Unit tests for the snapshot subsystem: RNG state round-trips, the
envelope codec (schema/integrity rejection), and ForkPoint independence.

The end-to-end golden-trace guarantee lives in
``tests/test_snapshot_equivalence.py``; this file covers the pieces.
"""

import pytest

from repro.experiments.world import build_world
from repro.sim.rng import RandomStreams
from repro.snapshot import (
    SNAPSHOT_SCHEMA,
    ForkPoint,
    SnapshotIntegrityError,
    SnapshotPicklingError,
    SnapshotSchemaError,
    restore,
    snapshot,
    snapshot_info,
    stable_digest,
)
from repro.snapshot import codec


# ----------------------------------------------------------------------
# RandomStreams state round-trip
# ----------------------------------------------------------------------
def test_random_streams_state_round_trip():
    streams = RandomStreams(1234)
    a, b = streams.stream("alpha"), streams.stream("beta")
    a.random(), b.random(), a.random()  # advance unevenly

    state = streams.getstate()
    expected = [a.random() for _ in range(5)], [b.random() for _ in range(5)]

    clone = RandomStreams(0)
    clone.setstate(state)
    got_a, got_b = clone.stream("alpha"), clone.stream("beta")
    assert [got_a.random() for _ in range(5)] == expected[0]
    assert [got_b.random() for _ in range(5)] == expected[1]
    assert clone.seed == 1234


def test_random_streams_state_is_name_ordered():
    one = RandomStreams(7)
    one.stream("zeta"), one.stream("alpha")
    two = RandomStreams(7)
    two.stream("alpha"), two.stream("zeta")
    # Same streams created in a different order serialize identically.
    assert one.getstate() == two.getstate()


def test_random_streams_setstate_drops_unlisted_streams():
    streams = RandomStreams(1)
    streams.stream("keep")
    state = streams.getstate()
    streams.stream("extra")
    streams.setstate(state)
    assert tuple(streams.names()) == ("keep",)


# ----------------------------------------------------------------------
# Envelope codec
# ----------------------------------------------------------------------
def test_snapshot_info_reads_header_without_unpickling():
    world = build_world(seed=11)
    world.populate(4)
    world.sim.run(until=0.5)
    blob = snapshot(world)
    info = snapshot_info(blob)
    assert info.schema == SNAPSHOT_SCHEMA
    assert info.sim_time == 0.5
    assert info.seed == 11
    assert "channel" in info.streams
    assert info.payload_bytes > 0


def test_restore_rejects_other_schema(monkeypatch):
    world = build_world(seed=3)
    blob = snapshot(world)
    monkeypatch.setattr(codec, "SNAPSHOT_SCHEMA", SNAPSHOT_SCHEMA + 1)
    with pytest.raises(SnapshotSchemaError, match="re-create the snapshot"):
        restore(blob)


def test_restore_rejects_bad_magic_and_truncation():
    world = build_world(seed=3)
    blob = snapshot(world)
    with pytest.raises(SnapshotIntegrityError, match="bad magic"):
        restore(b"NOTSNAP0" + blob[8:])
    with pytest.raises(SnapshotIntegrityError):
        restore(blob[: len(blob) - 40])


def test_restore_rejects_flipped_payload_byte():
    world = build_world(seed=3)
    blob = bytearray(snapshot(world))
    blob[-1] ^= 0xFF
    with pytest.raises(SnapshotIntegrityError, match="hash mismatch"):
        restore(bytes(blob))


def test_unpicklable_state_reports_guidance():
    world = build_world(seed=3)
    world.sim.schedule(1.0, lambda: None)  # a lambda cannot be pickled
    with pytest.raises(SnapshotPicklingError, match="docs/checkpointing.md"):
        snapshot(world)


def test_uncompressed_snapshot_round_trips():
    world = build_world(seed=5)
    world.populate(3)
    world.sim.run(until=0.4)
    blob = snapshot(world, compress=False)
    assert snapshot_info(blob).codec == "pickle"
    assert restore(blob).sim.now == 0.4


def test_mid_trial_snapshot_pickles_no_itertools_objects():
    """Counters are pickled as their next integer: pickling itertools
    objects is deprecated since Python 3.12 and gone in 3.14."""
    from repro.experiments.config import ATTACK_SINGLE, TrialConfig
    from repro.experiments.trial import begin_trial

    session = begin_trial(
        TrialConfig(seed=7, attack=ATTACK_SINGLE, attacker_cluster=5)
    )
    session.run_to(4.0)
    blob = snapshot(session, compress=False)
    assert b"itertools" not in blob
    resumed = restore(blob)
    assert resumed.world.sim.queue._sequence == session.world.sim.queue._sequence


# ----------------------------------------------------------------------
# Digest and fork independence
# ----------------------------------------------------------------------
def test_same_state_same_digest():
    def make():
        world = build_world(seed=9)
        world.populate(6)
        world.sim.run(until=0.8)
        return world

    assert stable_digest(make()) == stable_digest(make())


def test_fork_point_yields_identical_independent_worlds():
    world = build_world(seed=21)
    world.populate(8)
    world.sim.run(until=1.0)
    point = ForkPoint(world)

    first = point.fork()
    first.sim.run(until=3.0)  # perturb the first fork heavily

    second = point.fork()
    assert second.sim.now == 1.0
    second.sim.run(until=3.0)
    # Every fork starts from the same capture: same future, regardless
    # of what earlier forks (or the original) did in the meantime.
    assert stable_digest(second) == stable_digest(first)
