"""What a trial process holds: the modules it loads, the worlds it keeps,
and the duplicate-RREQ state its nodes build up during a flood.

A Figure 4 run builds thousands of trial worlds in one process, so two
things set its peak memory: the modules the trial path imports, and how
long each finished world lives.  ``run_trial`` closes its world, which
breaks the world's reference cycles and lets reference counting free it
at once instead of at the next full collector pass.
"""

import gc
import inspect
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

from repro.experiments.config import TrialConfig
from repro.experiments.flood import flood_trial_config
from repro.experiments.trial import begin_trial, run_trial
from repro.net import Network
from repro.routing import AodvProtocol
from repro.sim import Simulator
from repro.sketch import summaries

SRC = Path(__file__).resolve().parent.parent / "src"

#: Standard-library modules no serial trial needs: the HTTP server
#: behind ``--serve-metrics``, the TLS stack it pulls in, and the
#: process-pool machinery only ``--jobs N`` above 1 uses.
UNNEEDED = ("http.server", "ssl", "multiprocessing", "concurrent.futures")


def test_trial_drivers_import_only_what_a_trial_runs():
    # Nothing outside the standard library (no graph or array package),
    # and neither the metrics server nor the process pool.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.experiments.figure4, repro.arena, repro.experiments.flood\n"
        "new = set(sys.modules) - before\n"
        "tops = {name.partition('.')[0] for name in new}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'repro'}))\n"
        f"print(sorted(set({UNNEEDED!r}) & new))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout.splitlines()
    assert loaded == ["[]", "[]"]


def test_metrics_server_still_importable_from_obs():
    from repro.obs import MetricsServer
    from repro.obs.server import MetricsServer as Server

    assert MetricsServer is Server


def test_run_trial_leaves_almost_nothing_for_the_collector():
    # An unclosed Table I world leaves about 5,800 objects in cycles.
    config = TrialConfig(seed=1)
    gc.collect()
    gc.disable()
    try:
        run_trial(config)
        reclaimed = gc.collect()
    finally:
        gc.enable()
    assert reclaimed < 500


def test_run_trial_frees_its_simulator_and_network_without_the_collector(
    monkeypatch,
):
    # A reference cycle that World.close() does not break (say, a bound
    # method of the network stored on the network) keeps both alive
    # until the next collector pass, which the object count above can
    # miss.
    made = []
    for cls in (Simulator, Network):

        def tracked(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", tracked)
    gc.collect()
    gc.disable()
    try:
        run_trial(TrialConfig(seed=1))
        alive = [type(ref()).__name__ for ref in made if ref() is not None]
    finally:
        gc.enable()
    assert len(made) == 2
    assert alive == []


def test_world_closed_with_trains_in_flight_is_freed_without_the_collector():
    # Pending delivery trains hold their receivers, which point back at
    # the network: closing the world must drop them too.
    gc.collect()
    gc.disable()
    try:
        session = begin_trial(TrialConfig(seed=1))
        world = session.world
        world.sim.run(until=world.sim.now + 0.0003)
        assert world.net._trains
        refs = [weakref.ref(world.sim), weakref.ref(world.net)]
        world.close()
        del session, world
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert alive == [False, False]


def test_closed_world_keeps_its_counters_and_records():
    session = begin_trial(TrialConfig(seed=1))
    result = session.finish()
    world = session.world
    events, sent = world.sim.events_executed, world.net.stats.sent
    records = world.all_records()
    world.close()
    assert world.sim.events_executed == events > 0
    assert world.net.stats.sent == sent > 0
    assert world.all_records() == records == result.records
    assert world.sim.pending() == 0
    assert world.net.nodes == []
    assert all(
        node.aodv is None and not node._handlers
        for node in (*world.rsus, *world.vehicles)
    )
    # Closing happens after the result is built: same result as run_trial.
    assert run_trial(TrialConfig(seed=1)) == result


#: Bytes that ``repro/routing/protocol.py`` may hold at the end of a
#: 20-vehicle ``constant`` flood trial (seed 1), per (node, originator)
#: pair the nodes have heard RREQs from.  Measured by this test with
#: Python 3.11: 2,063,536 B over 62 pairs (33,283 B a pair) when each
#: node kept one (originator, id) tuple per accepted flood (18,595 of
#: them), and 43,416 B (700 B a pair) with one id window per originator.
DUPLICATE_STATE_BYTES_PER_PAIR = 2_000


def test_flood_duplicate_suppression_stays_small_per_originator(monkeypatch):
    # Duplicate suppression must not keep an object per flooded RREQ:
    # what it holds scales with the originators heard, not the run.
    pairs = set()  # (node, originator); allocated here, so not measured
    on_rreq = AodvProtocol._on_rreq

    def counting_on_rreq(self, packet, sender):
        pairs.add((self.address, packet.originator))
        on_rreq(self, packet, sender)

    monkeypatch.setattr(AodvProtocol, "_on_rreq", counting_on_rreq)
    tracemalloc.start()
    try:
        session = begin_trial(
            flood_trial_config(seed=1, variant="constant", vehicles=20)
        )
        session.finish()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, inspect.getfile(AodvProtocol))]
        )
    finally:
        tracemalloc.stop()
    session.world.close()
    held_bytes = sum(stat.size for stat in held.statistics("filename"))
    assert pairs
    assert held_bytes <= DUPLICATE_STATE_BYTES_PER_PAIR * len(pairs)


def _held_by(module, snapshot) -> int:
    held = snapshot.filter_traces([tracemalloc.Filter(True, inspect.getfile(module))])
    return sum(stat.size for stat in held.statistics("filename"))


def test_flood_world_sketches_hold_counters_only_once_updated():
    # Each RSU's aggregate monitor owns six count-min sketches, and a
    # flood world feeds only the two RREQ-rate ones: the other four
    # (hand-offs, forwards, Hello counts and latencies) must hold no
    # counters, and no sketch may hold any before its first update.
    tracemalloc.start()
    try:
        session = begin_trial(
            flood_trial_config(seed=1, variant="constant", vehicles=20)
        )
        built = _held_by(summaries, tracemalloc.take_snapshot())
        session.finish()
        finished = _held_by(summaries, tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    monitors = session.world.monitors
    session.world.close()
    config = monitors[0].config
    counters = config.width * config.depth * 8
    idle = [
        sketch
        for monitor in monitors
        for sketch in (
            monitor.handoffs,
            monitor.forwards,
            monitor.hello_counts,
            monitor.hello_latency,
        )
    ]
    assert monitors and all(sketch.total == 0.0 for sketch in idle)
    # Measured with Python 3.11 over these 10 monitors: 1,997,776 B at
    # build when every sketch allocated its 32 KiB of counters up front;
    # 13,040 B at build and 115,512 B at the end (three fed sketches)
    # with counters allocated on first update.
    assert built < counters * len(monitors) // 8
    assert finished < (2 * counters + counters // 8) * len(monitors)
