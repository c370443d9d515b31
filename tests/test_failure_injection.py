"""Failure-injection tests: lossy channels, backbone partitions, and
protocol-confusing suspects."""

from repro.core import BlackDpConfig
from repro.core.packets import VERDICT_FLED, VERDICT_INCONCLUSIVE
from repro.net import ChannelConfig, Node
from repro.routing import RouteReply, RouteRequest

from tests.helpers_blackdp import build_world
from tests.test_core_detection import report_suspect


def test_detection_survives_lossy_channel():
    """With 15% loss, probe retries still land a conviction eventually."""
    from repro.experiments.world import build_world as build

    world = build(seed=13, config=BlackDpConfig(probe_retries=4),
                  channel=ChannelConfig(loss_rate=0.15))
    reporter = world.add_vehicle("rep", x=2200.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    convicted = False
    for attempt in range(5):
        report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
        world.sim.run(until=world.sim.now + 30.0)
        if any(r.verdict == "black-hole" for r in world.all_records()):
            convicted = True
            break
    assert convicted


def test_backbone_partition_yields_fled_verdict():
    """If the suspect's CH is unreachable over the backbone, the case
    cannot be handed off and ends as fled — never as a conviction."""
    world = build_world()
    reporter = world.add_vehicle("rep", x=1500.0)  # cluster 2
    attacker = world.add_attacker("bh", x=2700.0)  # cluster 3
    world.sim.run(until=0.5)
    world.net.disconnect_backbone(world.rsus[1], world.rsus[2])  # partition
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run(until=world.sim.now + 30.0)
    records = world.service_for_cluster(2).records
    assert len(records) == 1
    assert records[0].verdict == VERDICT_FLED


class _ConfusedSuspect(Node):
    """Replies to probe 1 but answers probe 2 with a NON-escalating
    sequence number — not the black hole signature."""

    def __init__(self, sim, node_id, position):
        super().__init__(sim, node_id, position=position)
        self.register_handler(RouteRequest, self._on_rreq)

    def _on_rreq(self, packet, sender):
        seq = 100 if packet.destination_seq <= 0 else packet.destination_seq - 50
        self.send(
            RouteReply(
                src=self.address, dst=sender,
                originator=packet.originator, destination=packet.destination,
                destination_seq=max(seq, 0), hop_count=2,
                replied_by=self.address,
            )
        )


def test_non_escalating_replier_is_inconclusive_not_convicted():
    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    confused = _ConfusedSuspect(world.sim, "weird", position=(2700.0, 25.0))
    world.net.attach(confused)
    # Join it to cluster 3 manually so the CH can find it.
    from repro.clusters import MemberRecord

    world.rsus[2].membership.join(MemberRecord(address="weird", joined_at=0.0))
    world.sim.run(until=0.5)
    report_suspect(world, reporter, "weird", 3, None)
    world.sim.run(until=world.sim.now + 30.0)
    records = world.service_for_cluster(3).records
    assert len(records) == 1
    assert records[0].verdict == VERDICT_INCONCLUSIVE
    assert not world.service_for_cluster(3).crl.is_revoked_id("weird")


class _OneShotSuspect(Node):
    """Answers exactly one RREQ (the probe-1 bait), then goes silent
    while staying in the cluster."""

    def __init__(self, sim, node_id, position):
        super().__init__(sim, node_id, position=position)
        self.replied = False
        self.register_handler(RouteRequest, self._on_rreq)

    def _on_rreq(self, packet, sender):
        if self.replied:
            return
        self.replied = True
        self.send(
            RouteReply(
                src=self.address, dst=sender,
                originator=packet.originator, destination=packet.destination,
                destination_seq=packet.destination_seq + 200, hop_count=1,
                replied_by=self.address,
            )
        )


def test_going_quiet_mid_detection_is_inconclusive():
    world = build_world()
    reporter = world.add_vehicle("rep", x=2200.0)
    suspect = _OneShotSuspect(world.sim, "oneshot", position=(2700.0, 25.0))
    world.net.attach(suspect)
    from repro.clusters import MemberRecord

    world.rsus[2].membership.join(MemberRecord(address="oneshot", joined_at=0.0))
    world.sim.run(until=0.5)
    report_suspect(world, reporter, "oneshot", 3, None)
    world.sim.run(until=world.sim.now + 30.0)
    records = world.service_for_cluster(3).records
    assert records[0].verdict == VERDICT_INCONCLUSIVE
    # Breakdown shows the RREQ_2 retry before giving up.
    assert records[0].breakdown.count("RREQ_2") == 2


def test_two_concurrent_detections_use_distinct_aliases():
    world = build_world()
    rep1 = world.add_vehicle("rep1", x=2200.0)
    rep2 = world.add_vehicle("rep2", x=2300.0)
    bh1 = world.add_attacker("bh1", x=2600.0)
    bh2 = world.add_attacker("bh2", x=2800.0)
    world.sim.run(until=0.5)
    report_suspect(world, rep1, bh1.address, 3, bh1.certificate)
    report_suspect(world, rep2, bh2.address, 3, bh2.certificate)
    world.sim.run(until=world.sim.now + 30.0)
    records = world.service_for_cluster(3).records
    assert len(records) == 2
    assert {r.suspect for r in records} == {bh1.address, bh2.address}
    assert all(r.verdict == "black-hole" for r in records)
    assert all(r.packets == 6 for r in records)


def test_report_without_cluster_head_is_prevented_outcome():
    """A vehicle that never joined a cluster cannot report; verification
    fails closed (prevented) instead of crashing."""
    from repro.core import install_verifier
    from repro.mobility import VehicleMotion
    from repro.vehicles import VehicleNode

    world = build_world()
    attacker = world.add_attacker("bh", x=900.0)
    # A vehicle attached but never activated: no JREQ, no cluster head.
    ta = world.ta_for_vehicle(100.0)
    loner = VehicleNode(
        world.sim, world.highway, "loner",
        VehicleMotion(entry_time=0.0, entry_x=100.0, speed=0.0, lane_y=25.0),
        enrolment=ta.enroll("loner", now=0.0), authority=ta,
    )
    world.net.attach(loner)
    verifier = install_verifier(loner, world.ta_net.public_key)
    world.sim.run(until=0.5)
    outcomes = []
    verifier.establish_route("pid-far-away", outcomes.append)
    world.sim.run(until=world.sim.now + 30.0)
    outcome = outcomes[0]
    assert not outcome.verified
    assert outcome.reason == "no-cluster-head"
    assert outcome.prevented


def test_detection_result_relayed_across_backbone():
    """Reporter in cluster 1, suspect in cluster 5: the verdict travels
    examiner -> reporter's CH -> reporter."""
    world = build_world()
    reporter = world.add_vehicle("rep", x=300.0)  # cluster 1
    attacker = world.add_attacker("bh", x=4500.0)  # cluster 5
    world.sim.run(until=0.5)
    report_suspect(world, reporter, attacker.address, 5, attacker.certificate)
    world.sim.run(until=world.sim.now + 30.0)
    # Conviction recorded at cluster 5, and the reporter was told.
    records = world.service_for_cluster(5).records
    assert records and records[0].verdict == "black-hole"
    assert attacker.address in reporter.blacklist
