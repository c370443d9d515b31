"""Tests for the infrastructure watchdog (stealth-gray-hole extension)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import AttackerPolicy
from repro.clusters.membership import MemberRecord, MembershipTable
from repro.core.watchdog import (
    VERDICT_GRAY_HOLE,
    InfrastructureWatchdog,
    WatchdogConfig,
)
from repro.net import ChannelConfig, Network, Node
from repro.routing.packets import DataPacket
from repro.sim import Simulator

from tests.helpers_blackdp import build_world
from tests.test_extensions import make_grayhole


def build_watched_world(seed=3):
    world = build_world(seed=seed)
    watchdogs = [
        InfrastructureWatchdog(service) for service in world.services
    ]
    return world, watchdogs


def stream(world, source, destination, count):
    results = []
    source.aodv.discover(destination.address, results.append)
    world.sim.run(until=world.sim.now + 5.0)
    delivered = []
    destination.aodv.add_data_sink(lambda p: delivered.append(p.payload))
    for i in range(count):
        source.aodv.send_data(destination.address, payload=i)
        world.sim.run(until=world.sim.now + 0.1)
    world.sim.run(until=world.sim.now + 3.0)
    return delivered


def test_config_validation():
    with pytest.raises(ValueError):
        WatchdogConfig(grace=0.0)
    with pytest.raises(ValueError):
        WatchdogConfig(min_samples=0)
    with pytest.raises(ValueError):
        WatchdogConfig(ratio_threshold=0.0)


def test_honest_relay_never_convicted():
    world, watchdogs = build_watched_world()
    source = world.add_vehicle("src", x=2100.0)
    relay = world.add_vehicle("relay", x=2800.0)
    destination = world.add_vehicle("dst", x=3500.0)
    world.sim.run(until=0.5)
    delivered = stream(world, source, destination, 20)
    assert len(delivered) == 20
    assert all(not w.convicted for w in watchdogs)
    # The relay's ledger shows clean forwarding.
    ledger = watchdogs[2].ledgers.get(relay.address)
    assert ledger is not None
    assert ledger.dropped == 0
    assert ledger.forwarded >= 15


def test_stealth_grayhole_convicted_by_watchdog():
    world, watchdogs = build_watched_world()
    source = world.add_vehicle("src", x=2100.0)
    grayhole = make_grayhole(
        world, "gh", 2800.0, policy=AttackerPolicy.act_legitimately()
    )
    destination = world.add_vehicle("dst", x=3500.0)
    world.sim.run(until=0.5)
    delivered = stream(world, source, destination, 30)
    assert len(delivered) < 30  # it was dropping
    convicted = {address for w in watchdogs for address in w.convicted}
    assert grayhole.address in convicted
    records = [
        r for r in world.all_records() if r.verdict == VERDICT_GRAY_HOLE
    ]
    assert len(records) == 1
    assert records[0].suspect == grayhole.address
    assert "watchdog-evidence" in records[0].breakdown[0]
    # Full isolation ran: TA renewals paused, members warned.
    assert not grayhole.renew_identity()
    assert grayhole.address in source.blacklist


def test_watchdog_conviction_blocks_future_relaying():
    """After conviction, honest nodes gate the gray hole out entirely, so
    rediscovery routes around it when an alternative exists."""
    world, watchdogs = build_watched_world()
    source = world.add_vehicle("src", x=2100.0)
    grayhole = make_grayhole(
        world, "gh", 2800.0, policy=AttackerPolicy.act_legitimately()
    )
    destination = world.add_vehicle("dst", x=3500.0)
    world.sim.run(until=0.5)
    stream(world, source, destination, 30)  # triggers the conviction
    assert grayhole.address in source.blacklist
    # An alternative relay appears; the fresh stream routes around the
    # gated-out gray hole and everything arrives.
    alternative = world.add_vehicle("alt-relay", x=2850.0)
    world.sim.run(until=world.sim.now + 0.5)
    delivered = stream(world, source, destination, 10)
    assert len(delivered) == 10
    assert alternative.aodv.stats.data_forwarded >= 10


def test_blackhole_also_caught_by_watchdog_when_unreported():
    """Even if no vehicle files a d_req, a data-dropping member is caught
    by observation alone."""
    world, watchdogs = build_watched_world()
    source = world.add_vehicle("src", x=2100.0)
    attacker = world.add_attacker("bh", x=2800.0)
    world.add_vehicle("dst", x=3500.0)
    destination = world.vehicles[-1]
    world.sim.run(until=0.5)
    stream(world, source, destination, 30)
    convicted = {address for w in watchdogs for address in w.convicted}
    assert attacker.address in convicted


def test_min_samples_prevents_snap_judgement():
    world, watchdogs = build_watched_world()
    config = WatchdogConfig(min_samples=50)
    for watchdog in watchdogs:
        watchdog.config = config
    source = world.add_vehicle("src", x=2100.0)
    grayhole = make_grayhole(
        world, "gh", 2800.0, policy=AttackerPolicy.act_legitimately()
    )
    destination = world.add_vehicle("dst", x=3500.0)
    world.sim.run(until=0.5)
    stream(world, source, destination, 10)  # too few settled samples
    assert all(not w.convicted for w in watchdogs)


def test_watchdog_stop_detaches_monitor():
    world, watchdogs = build_watched_world()
    for watchdog in watchdogs:
        watchdog.stop()
    source = world.add_vehicle("src", x=2100.0)
    make_grayhole(world, "gh", 2800.0, policy=AttackerPolicy.act_legitimately())
    destination = world.add_vehicle("dst", x=3500.0)
    world.sim.run(until=0.5)
    stream(world, source, destination, 30)
    assert all(not w.convicted for w in watchdogs)
    assert all(not w.ledgers for w in watchdogs)


# ----------------------------------------------------------------------
# Ledger semantics (unit level): obligations are identities
# ----------------------------------------------------------------------
class _StubRsu(Node):
    """A bare RSU stand-in: a radio node with a membership table."""

    def __init__(self, sim, node_id, **kwargs):
        super().__init__(sim, node_id, **kwargs)
        self.membership = MembershipTable()


class _StubService:
    """Records forwarding convictions instead of running isolation."""

    def __init__(self, rsu):
        self.rsu = rsu
        self.convictions = []

    def convict_forwarding_violator(self, member, *, evidence):
        self.convictions.append((member, evidence))
        return SimpleNamespace(breakdown=[evidence])


def make_harness(*, grace=0.5, min_samples=1, ratio_threshold=0.75):
    sim = Simulator(seed=1)
    net = Network(sim, ChannelConfig())
    rsu = _StubRsu(sim, "rsu", position=(0.0, 0.0), transmission_range=1000.0)
    net.attach(rsu)
    rsu.membership.join(MemberRecord(address="member-1", joined_at=0.0))
    service = _StubService(rsu)
    watchdog = InfrastructureWatchdog(
        service,
        WatchdogConfig(
            grace=grace,
            min_samples=min_samples,
            ratio_threshold=ratio_threshold,
        ),
    )
    return sim, watchdog, service


def _data(originator, destination, hops):
    return DataPacket(
        src="relay",
        dst="member-1",
        originator=originator,
        final_destination=destination,
        payload="x",
        hops_travelled=hops,
    )


def test_duplicate_handoff_copies_collapse_to_one_obligation():
    """Regression: two radio copies of the *same* hand-off heard in the
    same instant are one obligation, not two.  The old value-equality
    ledger recorded two, discharged one with the single onward copy, and
    let the other expire — framing an honest forwarder as a dropper."""
    sim, watchdog, service = make_harness(min_samples=1)
    packet = _data("origin", "sink", hops=2)
    # Two identical copies of the hand-off arrive at the same instant.
    watchdog._on_overhear(packet, "relay", "member-1")
    watchdog._on_overhear(packet, "relay", "member-1")
    assert watchdog.pending_count == 1
    sim.run(until=0.1)
    # The member forwards the packet once, inside the grace window.
    onward = _data("origin", "sink", hops=3)
    watchdog._on_overhear(onward, "member-1", "next-hop")
    sim.run(until=2.0)  # well past every grace deadline
    ledger = watchdog.ledgers["member-1"]
    assert ledger.observed == 2  # both copies counted as observations
    assert ledger.forwarded == 1
    assert ledger.dropped == 0  # the duplicate copy must not expire
    assert not watchdog.convicted
    assert not service.convictions


def test_distinct_handoffs_settle_independently():
    """Two genuinely distinct hand-offs (different instants) each need
    their own onward copy: one forward discharges exactly one."""
    sim, watchdog, service = make_harness(min_samples=1, ratio_threshold=0.6)
    watchdog._on_overhear(_data("origin", "sink", hops=2), "relay", "member-1")
    sim.run(until=0.1)
    watchdog._on_overhear(_data("origin", "sink", hops=2), "relay", "member-1")
    assert watchdog.pending_count == 2
    watchdog._on_overhear(
        _data("origin", "sink", hops=3), "member-1", "next-hop"
    )
    sim.run(until=2.0)
    ledger = watchdog.ledgers["member-1"]
    assert ledger.observed == 2
    assert ledger.forwarded == 1
    assert ledger.dropped == 1  # the second hand-off was never forwarded
    assert watchdog.pending_count == 0


def test_stop_neutralizes_armed_grace_timers():
    """Regression: obligations armed before ``stop()`` must not mark
    drops (or convict) when their expiry events later fire."""
    sim, watchdog, service = make_harness(min_samples=1)
    watchdog._on_overhear(_data("origin", "sink", hops=2), "relay", "member-1")
    assert watchdog.pending_count == 1
    watchdog.stop()
    assert watchdog.pending_count == 0
    sim.run(until=2.0)  # the queued expiry event fires harmlessly
    ledger = watchdog.ledgers["member-1"]
    assert ledger.dropped == 0
    assert not watchdog.convicted
    assert not service.convictions


@settings(max_examples=40, deadline=None)
@given(
    plan=st.lists(
        st.tuples(
            st.integers(0, 2),   # originator index
            st.integers(1, 3),   # duplicate radio copies of the hand-off
            st.booleans(),       # forwarded inside the grace window?
        ),
        min_size=1,
        max_size=12,
    )
)
def test_ledger_invariants_hold_for_any_observation_sequence(plan):
    """Property: settled counts never exceed observations, and a member
    whose onward copies were all overheard is never convicted."""

    def drive(sim, watchdog):
        for origin, copies, forwarded in plan:
            sim.run(until=sim.now + 1.0)  # distinct instants per hand-off
            packet = _data(f"origin-{origin}", "sink", hops=2)
            for _ in range(copies):
                watchdog._on_overhear(packet, "relay", "member-1")
            if forwarded:
                sim.run(until=sim.now + 0.1)  # inside the 0.5 s grace
                onward = _data(f"origin-{origin}", "sink", hops=3)
                watchdog._on_overhear(onward, "member-1", "next-hop")
        sim.run(until=sim.now + 2.0)

    # Count invariants, with judgement disabled by a high sample floor
    # (a conviction stops observation of the member, which would make
    # the exact counts below undefined).
    sim, watchdog, _service = make_harness(min_samples=1000)
    drive(sim, watchdog)
    ledger = watchdog.ledgers["member-1"]
    assert ledger.forwarded + ledger.dropped <= ledger.observed
    assert ledger.forwarded == sum(1 for _, _, fwd in plan if fwd)
    assert ledger.dropped == sum(1 for _, _, fwd in plan if not fwd)
    assert watchdog.pending_count == 0

    if all(forwarded for _, _, forwarded in plan):
        # Every hand-off was answered by an overheard onward copy: even
        # the strictest judgement must leave the member unconvicted.
        sim, watchdog, service = make_harness(
            min_samples=1, ratio_threshold=1.0
        )
        drive(sim, watchdog)
        assert not watchdog.convicted
        assert not service.convictions


def test_gray_hole_conviction_emits_verdict_for_timelines():
    from repro.obs import reconstruct_timelines

    world = build_world(seed=3)
    trace = world.sim.obs.enable_trace()
    suspect = world.add_vehicle("gh", x=2800.0)
    world.sim.run(until=0.5)
    service = world.services[2]
    service.convict_forwarding_violator(suspect.address, evidence="dropped 9/10")
    world.sim.run(until=world.sim.now + 1.0)
    case = trace.case_events(suspect.address)
    assert [(e.kind, e.detail) for e in case[:2]] == [
        ("exam.verdict", VERDICT_GRAY_HOLE),
        ("exam.revoke", ""),
    ]
    [timeline] = reconstruct_timelines(trace.events)
    assert timeline.verdict == VERDICT_GRAY_HOLE
    assert timeline.time_to_isolation is not None
