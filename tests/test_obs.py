"""Tests for the observability subsystem (repro.obs).

Unit coverage for the three collectors, plus the acceptance-level
integration: one small instrumented trial must yield nonzero per-type
packet counters, a JSONL trace from which an RREQ→RREP exchange and a
probe→conviction sequence are reconstructable by packet id, and a
profile reporting events/sec.
"""

import dataclasses
import json

import pytest

from repro.experiments.config import TableIConfig, TrialConfig
from repro.experiments.trial import begin_trial, run_trial
from repro.obs import (
    MetricsRegistry,
    Observability,
    RunProfiler,
    TraceCollector,
    TraceEvent,
    TraceFilter,
    render_sequence,
)
from repro.sim import Simulator


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
def test_counter_get_or_create_and_value():
    registry = MetricsRegistry()
    registry.counter("net.sent", kind="RouteRequest").inc()
    registry.counter("net.sent", kind="RouteRequest").inc(2)
    registry.counter("net.sent", kind="RouteReply").inc()
    assert registry.value("net.sent", kind="RouteRequest") == 3
    assert registry.value("net.sent", kind="RouteReply") == 1
    assert registry.value("net.sent", kind="Data") == 0


def test_label_order_does_not_matter():
    registry = MetricsRegistry()
    registry.counter("x", a=1, b=2).inc()
    registry.counter("x", b=2, a=1).inc()
    assert registry.value("x", a=1, b=2) == 2


def test_total_sums_over_prefix():
    registry = MetricsRegistry()
    registry.counter("net.sent", kind="A").inc(2)
    registry.counter("net.sent", kind="B").inc(3)
    registry.counter("net.dropped", cause="loss").inc()
    assert registry.total("net.sent") == 5
    assert registry.total("net.") == 6


def test_counters_renders_prometheus_style():
    registry = MetricsRegistry()
    registry.counter("net.sent", kind="RouteRequest").inc()
    registry.counter("plain").inc()
    rendered = dict(registry.counters())
    assert rendered["net.sent{kind=RouteRequest}"] == 1
    assert rendered["plain"] == 1
    assert dict(registry.counters("net.")) == {"net.sent{kind=RouteRequest}": 1}


def test_gauge_tracks_high_water():
    registry = MetricsRegistry()
    gauge = registry.gauge("queue.depth")
    gauge.set(5)
    gauge.set(12)
    gauge.set(3)
    assert gauge.value == 3
    assert gauge.high_water == 12


def test_histogram_summary_and_bounded_reservoir():
    registry = MetricsRegistry(reservoir_size=16)
    histogram = registry.histogram("latency")
    for i in range(1000):
        histogram.observe(float(i))
    summary = histogram.summary()
    assert summary["count"] == 1000
    assert summary["min"] == 0.0
    assert summary["max"] == 999.0
    assert len(histogram._reservoir) == 16  # bounded memory
    assert 0.0 <= histogram.percentile(0.5) <= 999.0


def test_percentile_edge_cases():
    """q=0 is the minimum, q=1 the maximum (never an index overrun),
    and a single-sample reservoir answers itself for every quantile."""
    registry = MetricsRegistry()
    histogram = registry.histogram("latency")
    for value in (5.0, 1.0, 9.0, 3.0):
        histogram.observe(value)
    assert histogram.percentile(0.0) == 1.0
    assert histogram.percentile(1.0) == 9.0
    assert histogram.percentile(0.5) in (3.0, 5.0)
    single = registry.histogram("one")
    single.observe(42.0)
    for q in (0.0, 0.25, 0.5, 0.95, 1.0):
        assert single.percentile(q) == 42.0
    empty = registry.histogram("none")
    assert empty.percentile(0.5) == 0.0


def test_snapshot_is_json_serialisable():
    registry = MetricsRegistry()
    registry.counter("c", k="v").inc()
    registry.gauge("g").set(2.0)
    registry.histogram("h").observe(1.0)
    snapshot = registry.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["c{k=v}"] == 1


# ----------------------------------------------------------------------
# TraceCollector
# ----------------------------------------------------------------------
def _mkpacket():
    from repro.net.packets import Packet

    return Packet(src="a", dst="b")


def test_emit_stamps_virtual_time_and_packet_fields():
    sim = Simulator(seed=1)
    trace = sim.obs.enable_trace()
    packet = _mkpacket()
    sim.schedule(2.5, lambda: trace.emit("a", "net.send", packet))
    sim.run()
    (event,) = trace.events
    assert event.time == 2.5
    assert event.node == "a"
    assert event.packet_kind == "Packet"
    assert event.packet_uid == packet.uid
    assert (event.src, event.dst) == ("a", "b")


def test_capacity_bound_counts_drops():
    sim = Simulator(seed=1)
    trace = sim.obs.enable_trace(capacity=3)
    for i in range(5):
        trace.emit("n", "k", detail=str(i))
    assert len(trace) == 3
    assert trace.dropped == 2


def test_trace_filter_by_kind_prefix_and_node():
    sim = Simulator(seed=1)
    trace = sim.obs.enable_trace(
        trace_filter=TraceFilter(kind_prefixes=("aodv.",), nodes={"veh-1"})
    )
    trace.emit("veh-1", "aodv.rreq_tx")
    trace.emit("veh-1", "net.send")  # wrong prefix
    trace.emit("veh-2", "aodv.rreq_tx")  # wrong node
    assert [e.kind for e in trace.events] == ["aodv.rreq_tx"]


def test_trace_filter_admits_listed_kinds_or_prefixes():
    both = TraceFilter(kinds={"net.send"}, kind_prefixes=("exam.",))
    assert both.admits_kind("net.send")
    assert both.admits_kind("exam.verdict")
    assert not both.admits_kind("net.deliver")
    assert TraceFilter().admits_kind("anything")
    assert not TraceFilter(kinds=set()).admits_kind("net.send")


def test_collector_skips_net_kinds_it_cannot_record():
    sim = Simulator(seed=1)
    assert TraceCollector(sim).records_net
    for admitted in (
        TraceFilter(kind_prefixes=("net.",)),
        TraceFilter(kinds={"net.drop"}),
        TraceFilter(nodes={"veh-1"}),
    ):
        assert TraceCollector(sim, trace_filter=admitted).records_net
    narrow = TraceCollector(
        sim, trace_filter=TraceFilter(kind_prefixes=("verify.", "exam."))
    )
    assert not narrow.records_net
    built = []
    # the predicate sees every record the collector builds
    narrow.filter.predicate = lambda event: built.append(event) or True
    narrow.emit("rsu-1", "aodv.rreq_tx")
    narrow.emit("rsu-1", "exam.verdict", detail="black-hole")
    assert built == narrow.events
    assert [e.kind for e in built] == ["exam.verdict"]


def test_select_and_case_events():
    sim = Simulator(seed=1)
    trace = sim.obs.enable_trace()
    trace.emit("rsu-1", "exam.start", cause="suspect:pid-9")
    trace.emit("rsu-1", "exam.verdict", cause="suspect:pid-9", detail="black-hole")
    trace.emit("rsu-2", "exam.start", cause="suspect:pid-8")
    case = trace.case_events("pid-9")
    assert [e.kind for e in case] == ["exam.start", "exam.verdict"]
    assert trace.select(node="rsu-2")[0].cause == "suspect:pid-8"


def test_follow_builds_transitive_uid_closure():
    sim = Simulator(seed=1)
    trace = sim.obs.enable_trace()
    parent, child = _mkpacket(), _mkpacket()
    trace.emit("a", "net.send", parent)
    trace.emit("b", "aodv.rreq_fwd", child, cause=f"uid:{parent.uid}")
    trace.emit("c", "net.deliver", child)
    trace.emit("d", "net.send", _mkpacket())  # unrelated
    chain = trace.follow(parent.uid)
    assert {e.packet_uid for e in chain} == {parent.uid, child.uid}
    assert len(chain) == 3


def test_jsonl_round_trip(tmp_path):
    sim = Simulator(seed=1)
    trace = sim.obs.enable_trace()
    trace.emit("a", "net.send", _mkpacket(), cause="uid:1", detail="x")
    trace.emit("b", "net.deliver")
    path = trace.write_jsonl(tmp_path / "run.jsonl")
    restored = TraceCollector.read_jsonl(path)
    assert restored == trace.events
    assert all(isinstance(event, TraceEvent) for event in restored)


# ----------------------------------------------------------------------
# Sequence diagrams
# ----------------------------------------------------------------------
def _sent(time, src, dst, packet_kind, kind="net.send"):
    return TraceEvent(time, src, kind, packet_kind=packet_kind, src=src, dst=dst)


def test_render_draws_arrows_and_labels():
    events = [
        _sent(1.0, "a", "b", "RouteRequest"),
        _sent(2.0, "b", "a", "RouteReply"),
        _sent(3.0, "a", "c", "DetectionForward", kind="net.backbone_send"),
    ]
    diagram = render_sequence(events, ["a", "b", "c"])
    lines = diagram.splitlines()
    assert lines[0].split() == ["t(s)", "a", "b", "c"]
    assert "RREQ" in lines[1] and ">" in lines[1]
    assert "RREP" in lines[2] and "<" in lines[2]
    assert "fwd" in lines[3] and "=" in lines[3]


def test_render_broadcast_and_unknown_endpoints():
    events = [
        _sent(1.0, "a", "*", "MemberWarning"),
        _sent(2.0, "stranger", "b", "RouteReply"),  # skipped
        _sent(3.0, "a", "stranger", "RouteReply"),  # skipped
    ]
    diagram = render_sequence(events, ["a", "b"])
    lines = diagram.splitlines()
    assert len(lines) == 2  # header + the broadcast only
    assert "warn*" in lines[1]


def test_render_custom_labels():
    events = [_sent(1.0, "pid-x", "pid-y", "SecureHello")]
    diagram = render_sequence(
        events, ["pid-x", "pid-y"], labels={"pid-x": "src", "pid-y": "dst"}
    )
    header = diagram.splitlines()[0]
    assert "src" in header and "dst" in header
    assert "pid-x" not in header


def test_render_validation():
    with pytest.raises(ValueError):
        render_sequence([], [])


def test_render_skips_records_other_than_sends():
    events = [
        _sent(1.0, "a", "b", "RouteRequest", kind="net.deliver"),
        _sent(2.0, "a", "b", "RouteReply", kind="aodv.rrep_tx"),
    ]
    assert render_sequence(events, ["a", "b"]).count("\n") == 0


def test_render_live_trace_draws_radio_and_wire():
    from repro.net import Network, Node, Packet

    sim = Simulator(seed=1)
    net = Network(sim)
    a = Node(sim, "a", position=(0, 0))
    b = Node(sim, "b", position=(500, 0))
    net.attach(a)
    net.attach(b)
    net.connect_backbone(a, b)
    trace = sim.obs.enable_trace()
    a.send(Packet(src="a", dst="b"))
    net.transmit_backbone(a, Packet(src="a", dst="b"))
    sim.run()
    rows = render_sequence(trace.events, ["a", "b"]).splitlines()[1:]
    assert len(rows) == 2
    assert "-->" in rows[0] and "==>" in rows[1]


# ----------------------------------------------------------------------
# RunProfiler
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.5
        return self.t


def test_profiler_counts_events_and_labels():
    sim = Simulator(seed=1)
    profiler = sim.obs.enable_profiler()
    for i in range(4):
        sim.schedule(float(i + 1), lambda: None, label="tick")
    sim.schedule(5.0, lambda: None, label="other")
    sim.run()
    report = profiler.report()
    assert report.events == 5
    assert report.sim_seconds == 5.0
    assert report.queue_high_water == 5
    assert report.events_per_sec > 0
    by_label = {cost.label: cost.count for cost in report.breakdown}
    assert by_label == {"tick": 4, "other": 1}
    assert "events/sec" in report.format()


def test_profile_counts_format_holds_no_wall_clock_figure():
    profiler = RunProfiler(clock=FakeClock())
    profiler.begin_run(0.0)
    for label, seconds in (("b", 0.3), ("a", 0.1), ("c", 0.9), ("a", 0.2), ("b", 0.4)):
        profiler.record(label, seconds)
    profiler.end_run(2.0)
    lines = profiler.report().format_counts(top=2).splitlines()
    # ordered by count, then label, and cut at ``top``; no seconds
    assert lines == [
        "events executed : 5",
        "sim time        : 2.000s",
        "queue high-water: 0",
        "most frequent event labels:",
        "  a                                   2 ev",
        "  b                                   2 ev",
    ]


def test_profiler_label_limit_overflows_to_other():
    profiler = RunProfiler(clock=FakeClock(), label_limit=2)
    profiler.record("a", 0.1)
    profiler.record("b", 0.1)
    profiler.record("c", 0.1)
    profiler.record("d", 0.1)
    labels = {cost.label for cost in profiler.report().breakdown}
    assert labels == {"a", "b", "(other)"}
    assert profiler.events == 4


def test_profiler_report_is_json_serialisable():
    profiler = RunProfiler(clock=FakeClock())
    profiler.begin_run(0.0)
    profiler.record("x", 0.25)
    profiler.end_run(3.0)
    as_dict = profiler.report().to_dict()
    assert json.loads(json.dumps(as_dict)) == as_dict
    assert as_dict["events"] == 1
    assert as_dict["sim_seconds"] == 3.0


def test_step_feeds_profiler_too():
    sim = Simulator(seed=1)
    profiler = sim.obs.enable_profiler()
    sim.schedule(1.0, lambda: None, label="one")
    assert sim.step()
    assert profiler.report().events == 1


def test_stepping_counts_the_same_sim_time_as_run():
    # Each step covers the clock's jump to its event, as run() does.
    def profiled_sim():
        sim = Simulator(seed=1)
        profiler = sim.obs.enable_profiler()
        sim.schedule(1.0, lambda: None, label="one")
        sim.schedule(3.0, lambda: None, label="three")
        return sim, profiler

    stepped, stepped_profiler = profiled_sim()
    while stepped.step():
        pass
    ran, ran_profiler = profiled_sim()
    ran.run()
    assert stepped_profiler.report().sim_seconds == 3.0
    assert ran_profiler.report().sim_seconds == 3.0


# ----------------------------------------------------------------------
# Observability hub
# ----------------------------------------------------------------------
def test_hub_is_disabled_by_default():
    sim = Simulator(seed=1)
    assert not sim.obs.enabled
    assert sim.obs.metrics is None
    assert sim.obs.trace is None
    assert sim.obs.profiler is None


def test_enable_is_idempotent_and_disable_detaches():
    sim = Simulator(seed=1)
    metrics = sim.obs.enable_metrics()
    assert sim.obs.enable_metrics() is metrics
    assert sim.obs.enabled
    sim.obs.disable()
    assert not sim.obs.enabled


def test_disabled_simulator_records_nothing():
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert isinstance(sim.obs, Observability)
    assert not sim.obs.enabled


# ----------------------------------------------------------------------
# Acceptance: one fully instrumented trial
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instrumented_trial():
    config = TrialConfig(
        seed=3,
        table=TableIConfig(num_vehicles=20),
        metrics=True,
        trace=True,
        profile=True,
    )
    return run_trial(config)


def test_trial_yields_per_type_packet_counters(instrumented_trial):
    metrics = instrumented_trial.metrics
    assert metrics is not None
    assert metrics["net.sent{kind=RouteRequest}"] > 0
    assert metrics["net.sent{kind=RouteReply}"] > 0
    assert metrics["net.delivered{kind=RouteRequest}"] > 0
    # BlackDP layers counted too: probes, verdicts, revocations.
    assert any(key.startswith("blackdp.probes_sent") for key in metrics)
    assert any(key.startswith("blackdp.verdicts") for key in metrics)
    assert any(key.startswith("ta.enrolments") for key in metrics)


def test_trial_trace_reconstructs_rreq_rrep_by_packet_id(
    instrumented_trial, tmp_path
):
    # Export and re-import the JSONL, then reconstruct offline.
    path = tmp_path / "trial.jsonl"
    path.write_text(
        "\n".join(e.to_json() for e in instrumented_trial.trace_events) + "\n"
    )
    events = TraceCollector.read_jsonl(path)
    assert events == instrumented_trial.trace_events

    view = TraceCollector.from_events(events)
    origin = next(
        e for e in events if e.kind == "aodv.rreq_tx" and e.node == "source"
    )
    chain = view.follow(origin.packet_uid)
    kinds = {e.kind for e in chain}
    # The flood, the replies it provoked, and the terminal receipt all
    # hang off the originating RREQ's uid.
    assert "aodv.rreq_fwd" in kinds
    assert "aodv.rrep_tx" in kinds
    assert "aodv.rrep_rx" in kinds
    receipt = next(e for e in chain if e.kind == "aodv.rrep_rx")
    assert receipt.node == "source"


def test_trial_trace_reconstructs_probe_to_conviction(instrumented_trial):
    view = TraceCollector.from_events(instrumented_trial.trace_events)
    verdict = next(
        e
        for e in view.events
        if e.kind == "exam.verdict" and e.detail == "black-hole"
    )
    suspect = verdict.cause.removeprefix("suspect:")
    case = [e.kind for e in view.case_events(suspect)]
    # The probe sequence precedes the verdict which precedes revocation.
    assert case.index("exam.start") < case.index("exam.probe_tx")
    assert case.index("exam.probe_tx") < case.index("exam.verdict")
    assert case.index("exam.verdict") < case.index("exam.revoke")
    # Every probe's reply is linked back to the probe packet's uid.
    probe_uids = [
        e.packet_uid for e in view.case_events(suspect) if e.kind == "exam.probe_tx"
    ]
    assert probe_uids
    for uid in probe_uids[:2]:
        replies = [
            e
            for e in view.events
            if e.cause == f"uid:{uid}" and e.kind == "aodv.rrep_tx"
        ]
        assert replies, f"no reply traced to probe uid {uid}"


def test_trial_profile_reports_events_per_sec(instrumented_trial):
    profile = instrumented_trial.profile
    assert profile is not None
    assert profile.events > 0
    assert profile.events_per_sec > 0
    assert profile.queue_high_water > 0
    assert profile.breakdown


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_profiled_trial_matches_unprofiled_and_counts_executed_events(seed):
    # The profiler watches the run without steering it: the trial comes
    # out the same, and it counts exactly the events the simulator
    # executed, each under one event label.
    plain = run_trial(TrialConfig(seed=seed))
    session = begin_trial(TrialConfig(seed=seed, profile=True))
    profiled = session.finish()
    profile = profiled.profile
    assert dataclasses.replace(profiled, profile=None) == plain
    assert profile.events == session.world.sim.events_executed
    assert profile.events == sum(cost.count for cost in profile.breakdown)
    labels = {cost.label for cost in profile.breakdown}
    assert "spatial rebuild" not in labels
    assert "" not in labels  # every event names what it does
    session.world.close()


def test_profiled_trial_labels_name_no_node():
    # A label says what an event does, never whom it concerns, so the
    # profile of a Table I trial keeps one row per kind of event (91
    # rows, most of them one-event "veh-N crossing" ones, when crossings
    # and probe and Hello timeouts carried a node's name).
    session = begin_trial(TrialConfig(seed=1, profile=True))
    profile = session.finish().profile
    world = session.world
    labels = {cost.label for cost in profile.breakdown}
    names = {node.node_id for node in (*world.rsus, *world.vehicles)}
    names |= {node.address for node in (*world.rsus, *world.vehicles)}
    assert [label for label in labels if any(n in label for n in names)] == []
    assert "crossing" in labels
    assert len(labels) == 16
    world.close()


def test_uninstrumented_trial_carries_no_observability_payload():
    result = run_trial(TrialConfig(seed=3, table=TableIConfig(num_vehicles=20)))
    assert result.metrics is None
    assert result.trace_events is None
    assert result.profile is None


# ----------------------------------------------------------------------
# CLI smoke (satellite: blackdp trial --profile)
# ----------------------------------------------------------------------
def test_cli_trial_profile_smoke(tmp_path, capsys):
    from repro.experiments.__main__ import main

    trace_path = tmp_path / "cli.jsonl"
    exit_code = main(
        [
            "trial",
            "--seed",
            "3",
            "--metrics",
            "--trace",
            str(trace_path),
            "--profile",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "events/sec" in out
    assert "net.sent" in out
    assert trace_path.exists()
    events = TraceCollector.read_jsonl(trace_path)
    assert events

