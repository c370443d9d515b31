"""Integration tests for RSU-side detection, verdicts and Figure 5 packet
accounting."""

from repro.attacks import AttackerPolicy
from repro.core import BlackDpConfig, DetectionRequest
from repro.core.packets import (
    VERDICT_BLACK_HOLE,
    VERDICT_CLEAN,
    VERDICT_FLED,
)

from tests.helpers_blackdp import build_world


def report_suspect(world, reporter, suspect_address, suspect_cluster, cert=None):
    """Send a d_req directly (bypassing the vehicle-side verifier)."""
    request = DetectionRequest(
        src=reporter.address,
        dst=reporter.current_ch,
        reporter=reporter.address,
        reporter_cluster=reporter.current_cluster,
        suspect=suspect_address,
        suspect_cluster=suspect_cluster,
        suspect_certificate=cert,
    )
    reporter.send(request)


def test_same_cluster_attacker_six_packets():
    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run()
    records = world.service_for_cluster(3).records
    assert len(records) == 1
    record = records[0]
    assert record.verdict == VERDICT_BLACK_HOLE
    assert record.packets == 6
    assert record.breakdown == [
        "d_req", "RREQ_1", "RREP_1", "RREQ_2", "RREP_2", "result",
    ]


def test_cross_cluster_attacker_seven_packets():
    world = build_world()
    reporter = world.add_vehicle("rep", x=1500.0)   # cluster 2
    attacker = world.add_attacker("bh", x=2700.0)   # cluster 3
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run()
    records = world.service_for_cluster(3).records
    assert len(records) == 1
    assert records[0].verdict == VERDICT_BLACK_HOLE
    assert records[0].packets == 7
    assert records[0].breakdown[0:2] == ["d_req", "forward"]


def test_honest_suspect_clean_four_packets():
    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    honest = world.add_vehicle("innocent", x=2700.0)
    world.sim.run(until=0.5)
    report_suspect(world, reporter, honest.address, 3, honest.certificate)
    world.sim.run()
    records = world.service_for_cluster(3).records
    assert len(records) == 1
    record = records[0]
    assert record.verdict == VERDICT_CLEAN
    assert record.packets == 4
    assert record.breakdown == ["d_req", "RREQ_1", "RREQ_1", "result"]
    # No isolation for a clean verdict.
    assert len(world.service_for_cluster(3).crl) == 0


def test_honest_suspect_cross_cluster_five_packets():
    world = build_world()
    reporter = world.add_vehicle("rep", x=1500.0)
    honest = world.add_vehicle("innocent", x=2700.0)
    world.sim.run(until=0.5)
    report_suspect(world, reporter, honest.address, 3, honest.certificate)
    world.sim.run()
    records = world.service_for_cluster(3).records
    assert records[0].verdict == VERDICT_CLEAN
    assert records[0].packets == 5


def test_cooperative_pair_eight_packets_both_convicted():
    from repro.attacks import make_cooperative_pair

    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    b1, b2 = make_cooperative_pair(
        world.sim, world.highway,
        primary_id="b1", teammate_id="b2",
        primary_x=2600.0, teammate_x=2900.0, speed=0.0,
        enroll=lambda node_id: world.ta_for_vehicle(2600.0).enroll(
            node_id, now=world.sim.now
        ),
        authority=world.ta_for_vehicle(2600.0),
    )
    world.net.attach(b1)
    world.net.attach(b2)
    b1.activate()
    b2.activate()
    world.sim.run(until=0.5)
    report_suspect(world, reporter, b1.address, 3, b1.certificate)
    world.sim.run()
    records = world.service_for_cluster(3).records
    assert len(records) == 1
    record = records[0]
    assert record.verdict == VERDICT_BLACK_HOLE
    assert record.packets == 8
    assert record.cooperative_with == [b2.address]
    assert record.breakdown == [
        "d_req", "RREQ_1", "RREP_1", "RREQ_2", "RREP_2",
        "RREQ_teammate", "RREP_teammate", "result",
    ]
    # Both attackers revoked and blacklisted at the CH.
    crl = world.service_for_cluster(3).crl
    assert crl.is_revoked_id(b1.address)
    assert crl.is_revoked_id(b2.address)


def test_fleeing_attacker_chased_to_next_cluster_eight_packets():
    config = BlackDpConfig(inter_probe_delay=10.0, probe_timeout=1.0)
    world = build_world(config=config)
    reporter = world.add_vehicle("rep", x=2200.0)
    # Near the cluster 3 boundary; flees at 60 m/s after answering RREQ_1,
    # and by the time RREQ_2 goes out it has left both the cluster and the
    # examining RSU's radio footprint (x > 3500).
    attacker = world.add_attacker(
        "bh", x=2990.0,
        policy=AttackerPolicy(flee_after_replies=1, flee_speed=60.0),
    )
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run(until=40.0)
    # Detection finished at cluster 4 after one continuation forward.
    records4 = world.service_for_cluster(4).records
    assert len(records4) == 1
    record = records4[0]
    assert record.verdict == VERDICT_BLACK_HOLE
    assert record.packets == 8
    assert record.breakdown == [
        "d_req", "RREQ_1", "RREP_1", "RREQ_2", "forward",
        "RREQ_2", "RREP_2", "result",
    ]
    # The original CH handed off and emitted no record of its own.
    assert world.service_for_cluster(3).records == []


def test_fleeing_attacker_cross_cluster_nine_packets():
    config = BlackDpConfig(inter_probe_delay=10.0, probe_timeout=1.0)
    world = build_world(config=config)
    reporter = world.add_vehicle("rep", x=1500.0)  # cluster 2
    attacker = world.add_attacker(
        "bh", x=2990.0,
        policy=AttackerPolicy(flee_after_replies=1, flee_speed=60.0),
    )
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run(until=40.0)
    records4 = world.service_for_cluster(4).records
    assert len(records4) == 1
    assert records4[0].verdict == VERDICT_BLACK_HOLE
    assert records4[0].packets == 9


def test_attacker_fleeing_off_cluster_ten_is_lost():
    world = build_world()
    reporter = world.add_vehicle("rep", x=9300.0)
    attacker = world.add_attacker(
        "bh", x=9950.0,
        policy=AttackerPolicy(flee_after_replies=1, flee_speed=40.0),
    )
    world.sim.run(until=0.5)
    # The attacker answers the reporter's (implicit) traffic: trigger one
    # fake reply so it flees off the end of the highway.
    from repro.routing import RouteRequest

    reporter.send(
        RouteRequest(
            src=reporter.address, dst=attacker.address,
            originator=reporter.address, originator_seq=1,
            destination="pid-x", destination_seq=0, rreq_id=99,
        )
    )
    world.sim.run(until=1.0)
    assert attacker.exited
    report_suspect(world, reporter, attacker.address, 10, attacker.certificate)
    world.sim.run(until=20.0)
    records = world.service_for_cluster(10).records
    assert len(records) == 1
    assert records[0].verdict == VERDICT_FLED


def test_identity_renewal_during_detection_causes_fled_verdict():
    config = BlackDpConfig(inter_probe_delay=1.0, probe_timeout=1.0)
    world = build_world(config=config)
    reporter = world.add_vehicle("rep", x=2200.0)
    attacker = world.add_attacker(
        "bh", x=2700.0,
        policy=AttackerPolicy(renew_after_replies=1),
    )
    old_address = attacker.address
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run(until=30.0)
    assert attacker.address != old_address  # renewal succeeded (not yet revoked)
    records = world.all_records()
    assert len(records) == 1
    assert records[0].verdict == VERDICT_FLED
    assert records[0].suspect == old_address


def test_duplicate_reports_deduplicated_in_verification_table():
    world = build_world()
    rep1 = world.add_vehicle("rep1", x=2200.0)
    rep2 = world.add_vehicle("rep2", x=2300.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    report_suspect(world, rep1, attacker.address, 3, attacker.certificate)
    report_suspect(world, rep2, attacker.address, 3, attacker.certificate)
    world.sim.run()
    records = world.service_for_cluster(3).records
    assert len(records) == 1  # one examination, not two
    assert records[0].packets == 6  # second report added no packets


def test_already_revoked_suspect_answered_from_crl():
    world = build_world()
    rep1 = world.add_vehicle("rep1", x=2200.0)
    rep2 = world.add_vehicle("rep2", x=2300.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    report_suspect(world, rep1, attacker.address, 3, attacker.certificate)
    world.sim.run()
    assert len(world.service_for_cluster(3).records) == 1
    report_suspect(world, rep2, attacker.address, 3, attacker.certificate)
    world.sim.run()
    # No new examination: the CRL answered.
    assert len(world.service_for_cluster(3).records) == 1


def test_isolation_revokes_pauses_renewal_and_warns():
    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    bystander = world.add_vehicle("bystander", x=2400.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run()
    # TA-side: certificate revoked, renewals paused network-wide.
    for ta in world.tas:
        assert ta.crl.is_revoked_serial(attacker.certificate.serial)
    assert not attacker.renew_identity()
    # CH-side: adjacent cluster heads received the notice.
    assert world.service_for_cluster(2).crl.is_revoked_id(attacker.address)
    assert world.service_for_cluster(4).crl.is_revoked_id(attacker.address)
    assert not world.service_for_cluster(5).crl.is_revoked_id(attacker.address)
    # Vehicle-side: members in radio range were warned.
    assert attacker.address in bystander.blacklist
    assert attacker.address in reporter.blacklist


def test_newly_joined_vehicle_receives_warning():
    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run()
    newcomer = world.add_vehicle("newcomer", x=2500.0)
    world.sim.run(until=world.sim.now + 1.0)
    assert attacker.address in newcomer.blacklist


def test_insecure_suspect_isolated_with_synthetic_entry():
    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    attacker = world.add_attacker("bh", x=2700.0, enrolled=False)
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, cert=None)
    world.sim.run()
    records = world.service_for_cluster(3).records
    assert records[0].verdict == VERDICT_BLACK_HOLE
    crl = world.service_for_cluster(3).crl
    assert crl.is_revoked_id(attacker.address)
    entry = next(iter(crl))
    assert entry.serial < 0  # synthetic


def test_detection_duration_recorded():
    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run()
    record = world.service_for_cluster(3).records[0]
    assert record.duration > 0
    assert record.is_conviction
    assert record.examined_by == [3]
