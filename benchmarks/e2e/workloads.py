"""One repeat of one end-to-end workload, in a fresh process.

``run.py`` spawns this script once per repeat, so no module-global cache
of ``repro`` survives from one repeat into the next::

    PYTHONPATH=src python benchmarks/e2e/workloads.py fig4_slice --seed 0

The script builds the workload's inputs (the set-up), runs it through the
repository's public drivers (the timed part), checks every unit against
the workload's invariant, and prints one ``RESULT {json}`` line with the
timings, per-unit output digests and exact counts.  ``--traced`` installs
the span tracer (:mod:`tracer`) before anything is built and adds its
per-layer report, and writes the first unit's spans to
``benchmarks/e2e/out/spans-<workload>-seed<S>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

ARENA_ATTACKS = ("single", "cooperative", "grayhole", "wormhole", "sybil", "adaptive")
ARENA_DETECTORS = ("examiner", "dri", "sequence", "peak", "static", "trust", "sketch")

#: Detectors that must never convict an honest vehicle (the baselines
#: may: their false positives are what the arena exists to record).
PRECISE_DETECTORS = ("examiner", "dri", "sketch")

#: The non-flood qualitative pins of the arena matrix, as pinned by
#: ``benchmarks/bench_arena.py``: (attack, detector) -> detected.
ARENA_PINS = {
    ("wormhole", "examiner"): False,
    ("wormhole", "dri"): True,
    ("adaptive", "examiner"): True,
    ("adaptive", "sequence"): False,
    ("single", "sequence"): True,
    ("sybil", "sequence"): False,
}

#: Figure 4 outside the renewal zone: the paper reports 100 % accuracy;
#: the repository's own shape check allows a small prevention-only tail.
FIG4_MIN_ACCURACY = 0.95


def digest(payload) -> str:
    """Short stable hash of a JSON-encodable value."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class WorldCounts:
    """Exact simulation counts summed over every world a repeat builds.

    Replaces ``build_world`` (in every ``repro`` module that imported
    it) with a pass-through that remembers the returned world; a world's
    counts are folded in when the next one is built or at the end.
    """

    def __init__(self) -> None:
        self.events = 0
        self.sent = 0
        self.delivered = 0
        self._pending: list = []

    def install(self) -> None:
        import repro.experiments.world as world_module

        original = world_module.build_world

        def build_world(*args, **kwargs):
            self.fold()
            world = original(*args, **kwargs)
            self._pending.append((world.sim, world.net))
            return world

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") and getattr(module, "build_world", None) is original:
                module.build_world = build_world

    def watch(self, sim, net) -> None:
        """Count a simulator built without ``build_world``."""
        self._pending.append((sim, net))

    def fold(self) -> None:
        for sim, net in self._pending:
            self.events += sim.events_executed
            self.sent += net.stats.sent
            self.delivered += net.stats.delivered
        self._pending.clear()

    def totals(self) -> dict:
        self.fold()
        return {"sim.events": self.events, "net.sent": self.sent, "net.delivered": self.delivered}


class UnitLog:
    """Executor progress sink: per-unit host seconds from ``unit-done``.

    With a tracer attached, span records are tagged with the running
    unit number and recording stops once the first unit is done.
    """

    def __init__(self, tracer=None) -> None:
        self.seconds: list[float] = []
        self.tracer = tracer

    def __call__(self, event) -> None:
        if event.kind == "unit-start" and self.tracer is not None:
            self.tracer.unit = len(self.seconds)
        elif event.kind == "unit-done" and not event.cached:
            self.done(event.elapsed)

    def done(self, seconds: float) -> None:
        self.seconds.append(seconds)
        if self.tracer is not None:
            self.tracer.recording = False


# ----------------------------------------------------------------------
# Workloads: __init__ is the set-up, run() the timed part.  __init__
# imports and keeps the drivers, so their import cost counts as set-up.
# ----------------------------------------------------------------------
class Outcome:
    """What one repeat produced, unit by unit."""

    def __init__(self) -> None:
        self.digests: list[str] = []
        #: (unit index, reason) for every unit that broke an invariant
        self.failures: list[tuple[int, str]] = []
        #: invariants of the whole workload that broke (abort the run)
        self.aborts: list[str] = []
        self.info: dict = {}


def _summary_outcome(summaries, failed) -> Outcome:
    outcome = Outcome()
    for index, summary in enumerate(summaries):
        outcome.digests.append(digest(summary.to_dict()))
        reason = failed(summary)
        if reason:
            outcome.failures.append((index, reason))
    return outcome


class Fig4Slice:
    """Figure 4, single + cooperative x clusters 1-10 x 6 trials."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.experiments.executor import TrialExecutor
        from repro.experiments.figure4 import figure4_configs

        self.clusters = (1, 8) if smoke else tuple(range(1, 11))
        self.trials = 1 if smoke else 6
        self.configs = figure4_configs(
            trials=self.trials, clusters=self.clusters, base_seed=1000 + seed
        )
        self.executor_class = TrialExecutor

    def run(self, log: UnitLog) -> Outcome:
        from repro.experiments.figure4 import figure4_rows

        summaries = self.executor_class(jobs=1, progress=log).run_trials(self.configs)
        outcome = _summary_outcome(
            summaries,
            lambda s: "honest vehicle convicted"
            if s.false_positive or s.convicted_honest
            else "",
        )
        rows = figure4_rows(summaries, trials=self.trials, clusters=self.clusters)
        outside = [row.accuracy for row in rows if row.cluster <= 7]
        accuracy = statistics.fmean(outside)
        outcome.info["accuracy_clusters_1_7"] = accuracy
        if accuracy < FIG4_MIN_ACCURACY:
            outcome.aborts.append(
                f"pooled accuracy {accuracy:.3f} for clusters 1-7 is below "
                f"{FIG4_MIN_ACCURACY}"
            )
        return outcome


class Arena:
    """The arena matrix at paper scale: 6 attacks x 7 detectors x 2 trials."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.arena import run_matrix

        self.run_matrix = run_matrix
        self.attacks = ("wormhole", "adaptive") if smoke else ARENA_ATTACKS
        self.detectors = ("dri", "examiner") if smoke else ARENA_DETECTORS
        self.trials = 1 if smoke else 2
        self.vehicles = 20 if smoke else None
        self.base_seed = 1 + seed
        OUT.mkdir(parents=True, exist_ok=True)
        self.ledger = Path(tempfile.mkdtemp(prefix="arena-ledger-", dir=OUT))

    def run(self, log: UnitLog) -> Outcome:
        campaign, cells = self.run_matrix(
            self.ledger,
            attacks=self.attacks,
            detectors=self.detectors,
            trials=self.trials,
            base_seed=self.base_seed,
            num_vehicles=self.vehicles,
            jobs=1,
            stream=log,
        )
        outcome = _summary_outcome(
            campaign.results(),
            lambda s: f"{s.detector} convicted an honest vehicle"
            if s.detector in PRECISE_DETECTORS and s.false_positive
            else "",
        )
        for cell in cells:
            expected = ARENA_PINS.get((cell.attack, cell.detector))
            detected = cell.detection_rate > 0.0
            if expected is not None and detected != expected:
                outcome.aborts.append(
                    f"pin broken: {cell.attack} x {cell.detector} "
                    f"detected={detected}, expected {expected}"
                )
        outcome.info["cells"] = len(cells)
        return outcome

    def close(self) -> None:
        shutil.rmtree(self.ledger, ignore_errors=True)


class RreqFlood:
    """The RREQ-flood sweep: 3 variants x 1 trial, 60 vehicles, 50 RREQ/s."""

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.attacks.flood import FLOOD_VARIANTS
        from repro.experiments.executor import TrialExecutor
        from repro.experiments.flood import run_flood_sweep

        class RecordingExecutor(TrialExecutor):
            """Keeps every summary the sweep's executor returns."""

            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                self.summaries: list = []

            def run_trials(self, configs):
                summaries = super().run_trials(configs)
                self.summaries.extend(summaries)
                return summaries

        self.executor_class = RecordingExecutor
        self.run_flood_sweep = run_flood_sweep
        self.variants = ("constant",) if smoke else FLOOD_VARIANTS
        self.vehicles = 20 if smoke else 60
        self.seed = 9000 + seed

    def run(self, log: UnitLog) -> Outcome:
        executor = self.executor_class(jobs=1, progress=log)
        result = self.run_flood_sweep(
            trials=1,
            variants=self.variants,
            vehicles=self.vehicles,
            seed=self.seed,
            parallel=executor,
        )

        def failed(summary) -> str:
            if not summary.detected:
                return "flooder not convicted"
            if summary.convicted_honest:
                return "honest vehicle convicted"
            return ""

        outcome = _summary_outcome(executor.summaries, failed)
        outcome.info["rows"] = [
            f"{row.variant}: {row.detected}/{row.trials} detected, "
            f"{row.false_positives} honest FP"
            for row in result.rows
        ]
        return outcome


class Hello600:
    """600 vehicles beaconing AODV Hellos on a 10 km strip, 20 sim-s.

    The world mirrors ``benchmarks/bench_eventloop.py``'s Hello sweep
    but keeps the default ``ChannelConfig`` (with jitter).  One unit is
    one simulated second; ``run(until=k)`` between seconds schedules
    nothing, so stepping does not change the event stream.
    """

    HIGHWAY_LENGTH = 10_000.0
    TRANSMISSION_RANGE = 500.0

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.net import ChannelConfig, Network, Node
        from repro.routing.protocol import AodvConfig, AodvProtocol
        from repro.sim import Simulator

        self.vehicles = 100 if smoke else 600
        self.sim_seconds = 5 if smoke else 20
        self.sim = Simulator(seed=42 + seed)
        self.net = Network(self.sim, ChannelConfig())
        placement = self.sim.rng("bench-placement")
        for index in range(self.vehicles):
            node = Node(
                self.sim,
                f"veh-{index}",
                position=(placement.uniform(0.0, self.HIGHWAY_LENGTH), 0.0),
                transmission_range=self.TRANSMISSION_RANGE,
            )
            self.net.attach(node)
            AodvProtocol(node, AodvConfig(enable_hello=True, hello_interval=1.0))

    def run(self, log: UnitLog) -> Outcome:
        outcome = Outcome()
        sim, stats = self.sim, self.net.stats
        clock = time.perf_counter
        for second in range(1, self.sim_seconds + 1):
            if log.tracer is not None:
                log.tracer.unit = second - 1
            started = clock()
            sim.run(until=float(second))
            log.done(clock() - started)
            outcome.digests.append(
                digest([sim.events_executed, stats.sent, stats.delivered])
            )
        return outcome


WORKLOADS = {
    "fig4_slice": Fig4Slice,
    "arena": Arena,
    "rreq_flood": RreqFlood,
    "hello600": Hello600,
}


def run_repeat(name: str, seed: int, *, smoke: bool, traced: bool, spawned: float) -> dict:
    """Set up and run one repeat; returns the ``RESULT`` payload."""
    tracer = None
    missing: list[str] = []
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.calibrate()
        missing = tracer.install()
    workload = WORKLOADS[name](seed, smoke)
    setup_s = time.monotonic() - spawned
    counts = WorldCounts()
    counts.install()
    if isinstance(workload, Hello600):
        counts.watch(workload.sim, workload.net)
    log = UnitLog(tracer)
    if tracer is not None:
        tracer.recording = True
        tracer.begin()
    started = time.perf_counter()
    try:
        outcome = workload.run(log)
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.end()
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": wall,
        "units": len(outcome.digests),
        "unit_seconds": log.seconds,
        "digests": outcome.digests,
        "failures": outcome.failures,
        "aborts": outcome.aborts,
        "counts": counts.totals(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "info": outcome.info,
        "trace": None,
    }
    if tracer is not None:
        path = OUT / f"spans-{name}-seed{seed}.jsonl"
        result["trace"] = {
            "report": tracer.report(),
            "missing_entry_points": missing,
            "spans_file": str(path.relative_to(HERE.parent.parent)),
            "spans_written": tracer.write_jsonl(path),
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument(
        "--spawned",
        type=float,
        default=None,
        help="time.monotonic() reading taken just before this process was "
        "started (set-up time is measured from it)",
    )
    args = parser.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned
    result = run_repeat(
        args.workload, args.seed, smoke=args.smoke, traced=args.traced, spawned=spawned
    )
    print("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
