"""Wall-clock profiling of simulator runs.

A :class:`RunProfiler` attached to a simulator (via
``sim.obs.enable_profiler()``) makes the event loop time every event it
executes with ``time.perf_counter`` and aggregate the cost per event
*label* (the human-readable string given at scheduling time).  The
resulting :class:`ProfileReport` answers the three questions every
performance PR needs: how many events per wall-clock second the run
sustains, where the time goes, and how deep the event queue got.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class LabelCost:
    """Accumulated wall-clock cost of one event label."""

    label: str
    count: int = 0
    seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.seconds / self.count * 1e6 if self.count else 0.0


@dataclass
class ProfileReport:
    """The distilled result of one profiled run."""

    events: int
    wall_seconds: float
    sim_seconds: float
    queue_high_water: int
    #: per-label costs, most expensive first
    breakdown: list[LabelCost] = field(default_factory=list)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Simulated seconds per wall-clock second (>1 = faster than real time)."""
        return self.sim_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "events_per_sec": self.events_per_sec,
            "queue_high_water": self.queue_high_water,
            "breakdown": [
                {
                    "label": cost.label,
                    "count": cost.count,
                    "seconds": cost.seconds,
                    "mean_us": cost.mean_us,
                }
                for cost in self.breakdown
            ],
        }

    def format(self, *, top: int = 10) -> str:
        lines = [
            f"events executed : {self.events}",
            f"wall time       : {self.wall_seconds:.3f}s",
            f"sim time        : {self.sim_seconds:.3f}s "
            f"({self.speedup:.0f}x real time)",
            f"events/sec      : {self.events_per_sec:,.0f}",
            f"queue high-water: {self.queue_high_water}",
        ]
        if self.breakdown:
            lines.append("hottest event labels:")
            for cost in self.breakdown[:top]:
                lines.append(
                    f"  {cost.label:<28} {cost.count:>8} ev  "
                    f"{cost.seconds * 1e3:>9.2f} ms  {cost.mean_us:>7.1f} us/ev"
                )
        return "\n".join(lines)


class RunProfiler:
    """Samples wall-clock time around the simulator's event loop.

    A profiled run or ``step`` sends every event through
    :meth:`Simulator._execute <repro.sim.simulator.Simulator._execute>`,
    which calls :meth:`note_queue_depth` before the event, times it with
    ``clock`` and then calls :meth:`record`, the only accounting entry
    point, so :attr:`events` equals the events the simulator executed.
    :meth:`begin_run` and :meth:`end_run` bracket each run or step.
    ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, *, clock=time.perf_counter, label_limit: int = 256) -> None:
        self.clock = clock
        self.events = 0
        self.busy_seconds = 0.0
        self.queue_high_water = 0
        self._label_limit = label_limit
        #: label -> [count, seconds]; plain lists, not LabelCost objects,
        #: because this is written once per executed event — the objects
        #: are materialised only when a report is asked for
        self._by_label: dict[str, list] = {}
        self._run_started: float | None = None
        self._wall_seconds = 0.0
        self._sim_start = 0.0
        self._sim_seconds = 0.0

    # ------------------------------------------------------------------
    # Hooks called by the simulator
    # ------------------------------------------------------------------
    def begin_run(self, sim_now: float) -> None:
        self._run_started = self.clock()
        self._sim_start = sim_now

    def end_run(self, sim_now: float) -> None:
        if self._run_started is not None:
            self._wall_seconds += self.clock() - self._run_started
            self._run_started = None
        self._sim_seconds += sim_now - self._sim_start

    def record(self, label: str, seconds: float) -> None:
        """Account one executed event against its label."""
        self.events += 1
        self.busy_seconds += seconds
        by_label = self._by_label
        entry = by_label.get(label)
        if entry is None:
            if len(by_label) >= self._label_limit:
                label = "(other)"
                entry = by_label.get(label)
            if entry is None:
                entry = by_label[label] = [0, 0.0]
        entry[0] += 1
        entry[1] += seconds

    def note_queue_depth(self, depth: int) -> None:
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> ProfileReport:
        """Distil everything recorded so far (cumulative across runs)."""
        wall = self._wall_seconds
        if self._run_started is not None:  # report mid-run: include partial
            wall += self.clock() - self._run_started
        breakdown = sorted(
            (
                LabelCost(label, count, seconds)
                for label, (count, seconds) in self._by_label.items()
            ),
            key=lambda c: c.seconds,
            reverse=True,
        )
        return ProfileReport(
            events=self.events,
            wall_seconds=wall,
            sim_seconds=self._sim_seconds,
            queue_high_water=self.queue_high_water,
            breakdown=breakdown,
        )
