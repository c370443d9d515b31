"""Tests of the end-to-end benchmark's tracer and metric contract.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import BUCKET_INDEX, BUCKETS, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _trial(config):
    """Run one trial; returns its summary and the world's exact counts."""
    from repro.experiments.executor import summarize_trial
    from repro.experiments.trial import begin_trial

    session = begin_trial(config)
    result = session.finish()
    world = session.world
    counts = (world.sim.events_executed, world.net.stats.sent, world.net.stats.delivered)
    return summarize_trial(config, result), counts


def _configs():
    from repro.arena import ArenaConfig
    from repro.experiments.config import TableIConfig, TrialConfig

    small = TableIConfig(num_vehicles=20)
    return [
        TrialConfig(seed=11, attack="single", attacker_cluster=3, table=small),
        TrialConfig(
            seed=12,
            attack="wormhole",
            table=small,
            arena=ArenaConfig(detectors=("dri", "trust")),
            trace=True,
        ),
    ]


@pytest.mark.parametrize("index", [0, 1], ids=["single", "arena-wormhole"])
def test_tracer_is_passive_on_a_20_vehicle_trial(index):
    from repro.net.network import Network
    from repro.sim.simulator import Simulator

    config = _configs()[index]
    plain_summary, plain_counts = _trial(config)
    original_schedule = Simulator.schedule
    tracer = Tracer()
    tracer.calibrate(calls=2_000, rounds=1)
    assert tracer.install() == []
    try:
        tracer.recording = True
        tracer.begin()
        traced_summary, traced_counts = _trial(config)
        tracer.end()
    finally:
        tracer.uninstall()
    assert Simulator.schedule is original_schedule
    assert "_e2e_traced" not in vars(Network)
    assert traced_summary == plain_summary
    assert traced_counts == plain_counts
    report = tracer.report()
    assert report["net.calls"] > 0 and report["experiments.world_build.calls"] > 0
    if config.arena is not None:
        assert report["arena.calls"] > 0 and report["obs.calls"] > 0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_arithmetic_on_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    net, routing, sim = (BUCKET_INDEX[name] for name in ("net", "routing", "sim"))

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        tracer.span(sim, leaf)()
        clock.advance(0.5)
        tracer.dispatch(sim, leaf, ())

    def top():
        clock.advance(3.0)
        tracer.span(routing, middle)()
        clock.advance(0.25)

    tracer.recording = True
    tracer.begin()
    clock.advance(1.0)
    tracer.span(net, top)()
    clock.advance(4.0)
    tracer.end()

    report = tracer.report()
    assert report["net.self_s"] == pytest.approx(3.25)
    assert report["routing.self_s"] == pytest.approx(1.5)
    assert report["sim.self_s"] == pytest.approx(4.0)
    assert report["driver.self_s"] == pytest.approx(5.0)
    assert report["trace.wall_s"] == pytest.approx(13.75)
    layer_sum = sum(report[f"{name}.self_s"] for name in ("net", "routing", "sim"))
    assert layer_sum + report["driver.self_s"] == pytest.approx(report["trace.wall_s"])

    spans = [(BUCKETS[b], start, end, parent) for b, start, end, parent, _ in tracer.records]
    assert self_times(spans) == pytest.approx(
        {"net": 3.25, "routing": 1.5, "sim": 4.0, "driver": 5.0}
    )

    # With a per-call wrapper cost, the removed time reappears as the
    # tracer's own bucket and the books still close.
    tracer.span_inner = tracer.call_inner = 0.125
    tracer.span_outer = tracer.call_outer = 0.0625
    tracer.dispatch = tracer._make_dispatch()
    tracer.begin()
    clock.advance(1.0)
    tracer.span(net, top)()
    tracer.end()
    report = tracer.report()
    total = sum(report[f"{name}.self_s"] for name in ("net", "routing", "sim", "driver"))
    assert report["tracer.self_s"] == pytest.approx(4 * 0.1875)
    assert total + report["tracer.self_s"] == pytest.approx(report["trace.wall_s"])


def test_metric_names_and_units_follow_the_contract():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    entries = spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        assert NAME.fullmatch(entry["name"]), entry["name"]
        assert UNIT.fullmatch(entry["unit"]), entry["unit"]

    repeat = {
        "setup_s": 0.5,
        "wall_s": 2.0,
        "units": 4,
        "unit_seconds": [0.4, 0.5, 0.5, 0.6],
        "peak_rss_mb": 50.0,
    }
    assert {e["name"] for e in spec["end_to_end"]} <= set(run.end_to_end([repeat]))

    tracer = Tracer()
    tracer.begin()
    tracer.end()
    traced = {
        "wall_s": 2.5,
        "counts": {"sim.events": 10, "net.sent": 2, "net.delivered": 6},
        "trace": {"report": tracer.report()},
    }
    produced = run.per_layer(repeat, traced)
    assert all(NAME.fullmatch(name) for name in produced)
    missing = {e["name"] for e in spec["per_layer"]} - set(produced)
    assert not missing
