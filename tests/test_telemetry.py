"""Tests for the live telemetry pipeline.

Covers the four tentpole pieces — the deterministic time-series sampler,
the OpenMetrics renderer/HTTP endpoint, streaming executor/campaign
progress, and detection-timeline reconstruction — plus the reservoir-RNG
determinism fix.  The load-bearing guarantees pinned here:

- enabling the sampler leaves the protocol event stream **byte
  identical** (the golden-trace property the whole obs layer rests on);
- streamed progress is purely observational: results with a sink match
  results without one, at any job count.
"""

import itertools
import json
import urllib.request

import pytest

import repro.net.packets as packets_module

from repro.experiments.campaign import Campaign, CampaignStatus
from repro.experiments.config import TableIConfig, TrialConfig, point_seed
from repro.experiments.executor import TrialExecutor, trial_cache_key
from repro.experiments.progress import (
    ProgressAggregator,
    ProgressEvent,
    load_ledger_view,
    progress_line,
    render_top,
)
from repro.experiments.trial import run_trial
from repro.obs import (
    MetricsRegistry,
    reconstruct_timelines,
    render_openmetrics,
    serve_metrics,
    timeline_stats,
)
from repro.obs.export import escape_label_value, sanitize_metric_name
from repro.sim import Simulator

#: Small world so each trial costs milliseconds, not a tenth of a second.
SMALL = TableIConfig(num_vehicles=20)


def small_config(seed: int = 1, **overrides) -> TrialConfig:
    overrides.setdefault("attack", "single")
    return TrialConfig(seed=seed, table=SMALL, **overrides)


# ----------------------------------------------------------------------
# TimeSeriesRecorder
# ----------------------------------------------------------------------
def test_sampler_ticks_on_the_interval_grid():
    sim = Simulator(seed=1)
    metrics = sim.obs.enable_metrics()
    recorder = sim.obs.enable_timeseries(interval=0.5)
    metrics.counter("demo.ticks").inc(3)
    sim.run(until=2.0)
    assert recorder.series("demo.ticks").times() == [0.5, 1.0, 1.5, 2.0]
    assert recorder.series("demo.ticks").values() == [3.0, 3.0, 3.0, 3.0]


def test_sampler_grid_alignment_is_start_time_independent():
    sim = Simulator(seed=1)
    sim.obs.enable_metrics().counter("x").inc()
    sim.run(until=1.7)  # switch sampling on mid-interval
    recorder = sim.obs.enable_timeseries(interval=1.0)
    sim.run(until=4.0)
    assert recorder.series("x").times() == [2.0, 3.0, 4.0]


def test_sampler_tracks_counter_growth():
    sim = Simulator(seed=1)
    metrics = sim.obs.enable_metrics()
    recorder = sim.obs.enable_timeseries(interval=1.0)
    for t in (0.5, 1.5, 2.5):
        sim.schedule(t, metrics.counter("work").inc)
    sim.run(until=3.0)
    assert recorder.series("work").values() == [1.0, 2.0, 3.0]


def test_ring_buffer_bounds_memory_and_counts_evictions():
    sim = Simulator(seed=1)
    sim.obs.enable_metrics().counter("x").inc()
    recorder = sim.obs.enable_timeseries(interval=1.0, capacity=4)
    sim.run(until=10.0)
    series = recorder.series("x")
    assert len(series) == 4
    assert series.times() == [7.0, 8.0, 9.0, 10.0]  # oldest evicted
    assert series.evicted == 6
    assert recorder.evicted == 6


def test_sampler_stop_cancels_future_samples():
    sim = Simulator(seed=1)
    sim.obs.enable_metrics().counter("x").inc()
    recorder = sim.obs.enable_timeseries(interval=1.0)
    sim.run(until=2.0)
    recorder.stop()
    sim.run(until=5.0)
    assert recorder.series("x").times() == [1.0, 2.0]


def test_sampler_histogram_count_and_sum_series():
    sim = Simulator(seed=1)
    metrics = sim.obs.enable_metrics()
    recorder = sim.obs.enable_timeseries(interval=1.0)
    metrics.histogram("lat").observe(2.0)
    metrics.histogram("lat").observe(4.0)
    sim.run(until=1.0)
    assert recorder.series("lat:count").values() == [2.0]
    assert recorder.series("lat:sum").values() == [6.0]


def test_series_exports_round_trip(tmp_path):
    sim = Simulator(seed=1)
    metrics = sim.obs.enable_metrics()
    recorder = sim.obs.enable_timeseries(interval=1.0)
    metrics.counter("a.b", node="v,1").inc(2)
    sim.run(until=2.0)
    jsonl = tmp_path / "series.jsonl"
    recorder.write_jsonl(jsonl)
    assert recorder.read_jsonl(jsonl) == recorder.to_dict()
    csv = recorder.dumps_csv().splitlines()
    assert csv[0] == "metric,time,value"
    assert any(line.startswith('"') for line in csv[1:])  # comma name quoted


def test_recorder_validates_arguments():
    sim = Simulator(seed=1)
    sim.obs.enable_metrics()
    with pytest.raises(ValueError):
        sim.obs.enable_timeseries(interval=0.0)
    sim2 = Simulator(seed=1)
    sim2.obs.enable_metrics()
    with pytest.raises(ValueError):
        sim2.obs.enable_timeseries(capacity=0)


# ----------------------------------------------------------------------
# Golden trace: sampling must not perturb the simulation
# ----------------------------------------------------------------------
def _reset_packet_uids() -> None:
    # Packet uids come from a process-global counter; rewind it so two
    # runs in one process emit comparable traces (same pattern as
    # tests/test_eventloop_equivalence.py).
    packets_module._packet_ids = itertools.count(1)


def _trace_bytes(result) -> bytes:
    return "\n".join(e.to_json() for e in result.trace_events).encode()


def test_sampler_leaves_event_stream_byte_identical():
    _reset_packet_uids()
    plain = run_trial(small_config(seed=11, trace=True))
    _reset_packet_uids()
    sampled = run_trial(
        small_config(seed=11, trace=True, sample_interval=0.25)
    )
    assert _trace_bytes(sampled) == _trace_bytes(plain)
    assert sampled.detected == plain.detected
    assert sampled.records == plain.records
    assert sampled.series  # and the sampler did actually sample


# ----------------------------------------------------------------------
# Reservoir RNG determinism (the histogram sampling fix)
# ----------------------------------------------------------------------
def _filled_registry(order: list[tuple[str, int]]) -> MetricsRegistry:
    registry = MetricsRegistry(reservoir_size=8)
    for name, node in order:
        histogram = registry.histogram(name, node=node)
        for value in range(40):
            histogram.observe(float(value + node))
    return registry


def test_histogram_reservoirs_reproduce_across_runs():
    a = _filled_registry([("lat", 1), ("lat", 2)])
    b = _filled_registry([("lat", 1), ("lat", 2)])
    assert a.histogram("lat", node=1).summary() == b.histogram(
        "lat", node=1
    ).summary()
    assert a.histogram("lat", node=2).summary() == b.histogram(
        "lat", node=2
    ).summary()


def test_histogram_reservoirs_independent_of_creation_order():
    forward = _filled_registry([("lat", 1), ("lat", 2)])
    reverse = _filled_registry([("lat", 2), ("lat", 1)])
    assert forward.histogram("lat", node=1).summary() == reverse.histogram(
        "lat", node=1
    ).summary()


def test_histogram_reservoirs_differ_between_instruments():
    registry = _filled_registry([("lat", 1), ("lat", 2)])
    # Same stream of values offset by node; with per-instrument RNG the
    # *kept* samples differ, which is what decorrelation means.
    kept1 = registry.histogram("lat", node=1)._reservoir
    kept2 = [v - 1 for v in registry.histogram("lat", node=2)._reservoir]
    assert kept1 != kept2


# ----------------------------------------------------------------------
# OpenMetrics renderer + HTTP endpoint
# ----------------------------------------------------------------------
def test_openmetrics_renders_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.counter("net.sent", kind="RouteRequest").inc(3)
    registry.gauge("sim.queue.depth").set(7)
    registry.histogram("probe.latency").observe(1.5)
    body = render_openmetrics(registry)
    lines = body.splitlines()
    assert "# TYPE net_sent counter" in lines
    assert 'net_sent_total{kind="RouteRequest"} 3' in lines
    assert "# TYPE sim_queue_depth gauge" in lines
    assert "sim_queue_depth 7" in lines
    assert "# TYPE probe_latency summary" in lines
    assert "probe_latency_count 1" in lines
    assert "probe_latency_sum 1.5" in lines
    assert any(line.startswith('probe_latency{quantile="0.5"}') for line in lines)
    assert lines[-1] == "# EOF"
    assert body.endswith("\n")


def test_openmetrics_escapes_label_values_and_names():
    assert sanitize_metric_name("net.sent-ok") == "net_sent_ok"
    assert sanitize_metric_name("0day") == "_0day"
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    registry = MetricsRegistry()
    registry.counter("x", node='veh"1\\two\nthree').inc()
    body = render_openmetrics(registry)
    assert 'x_total{node="veh\\"1\\\\two\\nthree"} 1' in body


def test_metrics_http_endpoints():
    registry = MetricsRegistry()
    registry.counter("net.sent").inc(5)
    server = serve_metrics(registry, 0, status_fn=lambda: {"phase": "test"})
    try:
        metrics = urllib.request.urlopen(server.url + "/metrics", timeout=5)
        assert metrics.status == 200
        assert "openmetrics-text" in metrics.headers["Content-Type"]
        body = metrics.read().decode()
        assert "net_sent_total 5" in body
        assert body.rstrip().endswith("# EOF")
        health = urllib.request.urlopen(server.url + "/healthz", timeout=5)
        assert health.read() == b"ok\n"
        status = json.loads(
            urllib.request.urlopen(server.url + "/status", timeout=5).read()
        )
        assert status["phase"] == "test"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(server.url + "/nope", timeout=5)
    finally:
        server.close()


def test_metrics_server_status_errors_are_reported_not_fatal():
    registry = MetricsRegistry()

    def broken() -> dict:
        raise RuntimeError("boom")

    server = serve_metrics(registry, 0, status_fn=broken)
    try:
        status = json.loads(
            urllib.request.urlopen(server.url + "/status", timeout=5).read()
        )
        assert "boom" in status["status_error"]
    finally:
        server.close()


# ----------------------------------------------------------------------
# Detection timelines
# ----------------------------------------------------------------------
def test_timeline_pin_cooperative_blackhole():
    """Pin the narrative of the known cooperative trial (Table I, seed 7)."""
    result = run_trial(TrialConfig(seed=7, attack="cooperative", trace=True))
    assert result.detected
    timelines = result.timelines
    assert timelines is not None and len(timelines) >= 1
    convicted = [t for t in timelines if t.convicted]
    assert convicted, "no convicted timeline reconstructed"
    case = convicted[0]
    assert case.suspect in result.attacker_addresses
    assert case.probes >= 1
    assert case.first_suspicion is not None
    assert case.verdict_at is not None and case.verdict_at > case.first_suspicion
    assert case.time_to_detection > 0
    assert case.time_to_isolation is not None
    assert case.time_to_isolation >= case.time_to_detection
    assert len(case.propagated_to) > 0  # revocation actually spread
    assert result.detection_delays and result.isolation_delays
    assert result.isolation_delays[0] >= result.detection_delays[0]


def test_timeline_stats_aggregates_convicted_only():
    result = run_trial(TrialConfig(seed=7, attack="cooperative", trace=True))
    stats = timeline_stats(result.timelines)
    assert stats.cases == len(result.timelines)
    assert stats.convictions >= 1
    summary = stats.to_dict()
    assert summary["time_to_detection"]["count"] == len(stats.detection_delays)
    assert summary["time_to_detection"]["mean"] > 0


def test_reconstruct_timelines_empty_trace():
    assert reconstruct_timelines([]) == []


def test_no_attack_trial_has_no_convictions():
    result = run_trial(small_config(seed=3, attack="none", trace=True))
    assert all(not t.convicted for t in (result.timelines or []))
    assert result.detection_delays == []


# ----------------------------------------------------------------------
# Streaming progress
# ----------------------------------------------------------------------
def _configs(count: int) -> list[TrialConfig]:
    return [
        TrialConfig(
            seed=point_seed(1000, "single", 5, index),
            attack="single",
            attacker_cluster=5,
            table=SMALL,
        )
        for index in range(count)
    ]


def test_progress_stream_inline_and_pooled_are_observational(tmp_path):
    configs = _configs(6)
    baseline = TrialExecutor(jobs=1).run_trials(configs)

    inline_agg = ProgressAggregator(total=6)
    assert TrialExecutor(jobs=1, progress=inline_agg).run_trials(configs) == baseline
    assert inline_agg.done == 6
    assert inline_agg.cached == 0

    pooled_agg = ProgressAggregator(
        total=6, events_path=tmp_path / "events.jsonl"
    )
    assert TrialExecutor(jobs=2, progress=pooled_agg).run_trials(configs) == baseline
    assert pooled_agg.done == 6
    assert len(pooled_agg.workers) >= 1
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds.count("unit-start") == 6
    assert kinds.count("unit-done") == 6


def test_progress_cache_hits_stream_as_cached_events(tmp_path):
    configs = _configs(3)
    TrialExecutor(jobs=1, cache_dir=tmp_path / "cache").run_trials(configs)
    agg = ProgressAggregator(total=3)
    TrialExecutor(jobs=1, cache_dir=tmp_path / "cache", progress=agg).run_trials(
        configs
    )
    assert agg.done == 3
    assert agg.cached == 3


def test_progress_aggregator_publishes_exec_gauges():
    registry = MetricsRegistry()
    agg = ProgressAggregator(total=4, metrics=registry)
    for unit in range(2):
        agg(ProgressEvent(kind="unit-done", unit=unit, worker=1, wall=float(unit)))
    assert registry.gauge("exec.progress.done").value == 2
    assert registry.gauge("exec.progress.total").value == 4
    assert registry.gauge("exec.progress.workers").value == 1


def test_progress_event_round_trips_through_feed():
    event = ProgressEvent(
        kind="unit-done", unit=3, seed=42, worker=7, elapsed=1.5,
        wall=12.0, cached=True, detected=True,
    )
    assert ProgressEvent.from_dict(event.to_dict()) == event


def test_progress_line_renders_fraction():
    line = progress_line(
        {"done": 5, "total": 10, "rate_per_sec": 2.0, "eta_seconds": 2.5,
         "workers": {"1": {}}}
    )
    assert "5/10 units" in line
    assert "50.0%" in line


# ----------------------------------------------------------------------
# Campaign streaming + ledger view
# ----------------------------------------------------------------------
def _tiny_campaign(directory) -> Campaign:
    spec = {
        "kind": "figure4",
        "trials": 2,
        "attacks": ["single"],
        "clusters": [5],
        "base_seed": 1000,
    }
    return Campaign.create(directory, name="tiny", spec=spec)


def test_campaign_streams_events_and_top_renders(tmp_path):
    ledger = tmp_path / "ledger"
    campaign = _tiny_campaign(ledger)
    stream = campaign.make_aggregator()
    status = campaign.run(jobs=1, batch=1, stream=stream)
    assert status.done
    kinds = [
        json.loads(line)["kind"]
        for line in campaign.events_path.read_text().splitlines()
    ]
    assert kinds.count("unit-done") == 2
    assert kinds.count("batch") == 2
    assert kinds[-1] == "campaign-done"

    view = load_ledger_view(ledger)
    assert view.name == "tiny"
    assert view.complete
    assert view.journaled == view.total == 2
    assert view.done_events == 2
    screen = render_top(view, now=view.last.wall)
    assert "campaign 'tiny'" in screen
    assert "2/2" in screen
    assert "[complete]" in screen


def test_ledger_view_of_missing_directory_is_empty(tmp_path):
    view = load_ledger_view(tmp_path / "nope")
    assert view.total == 0
    assert not view.complete
    assert render_top(view)  # renders without crashing


def test_campaign_status_to_dict_round_trips():
    status = CampaignStatus(
        name="x", directory="/tmp/x", total=10, completed=4, corrupt_lines=1
    )
    payload = status.to_dict()
    assert payload == {
        "name": "x", "directory": "/tmp/x", "total": 10, "completed": 4,
        "remaining": 6, "done": False, "corrupt_lines": 1,
    }
    assert json.loads(json.dumps(payload)) == payload


def test_cli_campaign_status_json(tmp_path, capsys):
    from repro.experiments.__main__ import main

    ledger = tmp_path / "ledger"
    campaign = _tiny_campaign(ledger)
    campaign.run(jobs=1)
    code = main(["campaign", "status", "--dir", str(ledger), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["done"] is True
    assert payload["completed"] == payload["total"] == 2


def test_cli_top_once(tmp_path, capsys):
    from repro.experiments.__main__ import main

    ledger = tmp_path / "ledger"
    campaign = _tiny_campaign(ledger)
    campaign.run(jobs=1, stream=campaign.make_aggregator())
    code = main(["top", "--dir", str(ledger), "--once"])
    out = capsys.readouterr().out
    assert code == 0
    assert "campaign 'tiny'" in out
    assert "[complete]" in out


# ----------------------------------------------------------------------
# Cache-key stability: obs switches must not invalidate results
# ----------------------------------------------------------------------
def test_sample_interval_does_not_change_cache_key():
    base = small_config(seed=5)
    sampled = small_config(seed=5, sample_interval=0.5, metrics=True)
    assert trial_cache_key(base) == trial_cache_key(sampled)
