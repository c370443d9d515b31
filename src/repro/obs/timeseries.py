"""Deterministic time-series sampling of the metrics registry.

End-of-run snapshots answer "how much happened"; the paper's headline
claims are *temporal* — how fast a black hole is detected and isolated
after it appears — and watching a dynamic system (DPRAODV-style
thresholds, queue depth, probe traffic) means sampling it while it runs.
:class:`TimeSeriesRecorder` schedules itself on the simulator's timer
wheel at a fixed **virtual-time** cadence and snapshots every instrument
in the :class:`~repro.obs.metrics.MetricsRegistry` into fixed-capacity
ring buffers.

Determinism rules
-----------------
- Sampling is driven by the simulator clock, never wall time, so the
  same seed yields the same series on any machine.
- The sampler ticks at :data:`~repro.sim.events.PRIORITY_LOW` and only
  *reads* collector state: it draws no randomness, sends no packets and
  touches no protocol state, so enabling it leaves the simulation's
  event stream byte-identical (pinned by ``tests/test_telemetry.py``).
- All state (ring buffers, the pending tick, the cadence) lives on the
  recorder and the event queue.

Memory is bounded: each series is a ring of ``capacity`` points; older
points are overwritten and counted in :attr:`TimeSeriesRecorder.evicted`,
so a week-long campaign cannot exhaust memory through its own telemetry.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from operator import attrgetter, call
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: Default virtual seconds between samples.
DEFAULT_INTERVAL = 1.0

#: Default ring capacity per series (points, not bytes).
DEFAULT_CAPACITY = 4096

# Hot-loop plumbing: ``_DRAIN(map(call, appends, map(_VALUE, objs)))``
# runs one append per instrument entirely in C — no Python frame per
# sample point.  The zero-length deque consumes the map lazily-for-free.
_DRAIN = deque(maxlen=0).extend
_VALUE = attrgetter("value")
_COUNT = attrgetter("count")
_TOTAL = attrgetter("total")


class MetricSeries:
    """One metric's ring of ``(virtual time, value)`` points.

    Storage is columnar: values live in this ring, timestamps in a time
    column shared with every sibling ring (recorder-owned rings all tick
    together, so one time column serves them all); :attr:`points` zips
    the two back into pairs on read.
    """

    __slots__ = ("name", "_times", "_values", "evicted", "tick_offset")

    def __init__(
        self,
        name: str,
        capacity: int,
        *,
        times: deque | None = None,
    ) -> None:
        self.name = name
        self._times: deque[float] = (
            deque(maxlen=capacity) if times is None else times
        )
        self._values: deque[float] = deque(maxlen=capacity)
        self.evicted = 0
        #: recorder sample count when this ring was created; the
        #: recorder derives :attr:`evicted` from it lazily (one append
        #: per tick) instead of paying bookkeeping in the sample loop
        self.tick_offset = 0

    def append(self, time: float, value: float) -> None:
        """Standalone append (recorder-owned rings are fed columnar)."""
        if len(self._values) == self._values.maxlen:
            self.evicted += 1
        self._times.append(time)
        self._values.append(value)

    @property
    def points(self) -> list[tuple[float, float]]:
        """``[(time, value), ...]`` oldest-first, rebuilt from columns."""
        values = self._values
        count = len(values)
        if not count:
            return []
        times = self._times
        skip = len(times) - count  # ring created after the time column
        if skip:
            return list(zip(islice(times, skip, None), values))
        return list(zip(times, values))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.points)

    @property
    def last(self) -> tuple[float, float] | None:
        if not self._values:
            return None
        return (self._times[-1], self._values[-1])

    def values(self) -> list[float]:
        return list(self._values)

    def times(self) -> list[float]:
        times = self._times
        skip = len(times) - len(self._values)
        return list(islice(times, skip, None)) if skip else list(times)


class TimeSeriesRecorder:
    """Samples the metrics registry at a fixed virtual-time cadence.

    >>> from repro.sim import Simulator
    >>> sim = Simulator(seed=1)
    >>> metrics = sim.obs.enable_metrics()
    >>> recorder = sim.obs.enable_timeseries(interval=0.5)
    >>> metrics.counter("demo.ticks").inc(3)
    >>> sim.run(until=2.0)
    >>> recorder.series("demo.ticks").values()
    [3, 3, 3, 3]

    The recorder keeps rescheduling itself forever (like the protocol's
    periodic timers), so drive the simulator with ``run(until=...)``;
    :meth:`stop` cancels the pending tick when sampling should end early.
    """

    def __init__(
        self,
        simulator: "Simulator",
        *,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._simulator = simulator
        self.interval = float(interval)
        self.capacity = capacity
        self._series: dict[str, MetricSeries] = {}
        # Shared time column: every recorder-owned ring appends exactly
        # once per tick, so one timestamp per tick serves all of them.
        self._ticks: deque[float] = deque(maxlen=capacity)
        # Parallel instrument/append lists, rebuilt only when the
        # registry gains instruments: the per-tick loop then runs as
        # ``map(call, appends, map(attrgetter, instruments))`` — pure C,
        # which is what keeps sampler overhead in low single-digit
        # percent on a Table I trial.
        self._registry = None
        self._counters: list = []
        self._counter_appends: list = []
        self._gauges: list = []
        self._gauge_appends: list = []
        self._histograms: list = []
        self._histogram_count_appends: list = []
        self._histogram_sum_appends: list = []
        self.samples = 0
        self._pending = None
        self._started = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def start(self) -> "TimeSeriesRecorder":
        """Schedule the first tick on the next interval-grid boundary.

        Grid alignment (``t = k * interval``) rather than ``now +
        interval`` keeps sample timestamps independent of *when* sampling
        was switched on, so series from different runs line up.
        """
        if self._started:
            return self
        self._started = True
        self._schedule_next()
        return self

    def stop(self) -> None:
        """Cancel the pending tick; :meth:`start` may be called again."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._started = False

    def _schedule_next(self) -> None:
        sim = self._simulator
        # Next strictly-future grid point; floor+1 handles mid-interval
        # starts and exact-boundary restarts alike, and the <= guard
        # absorbs float-division error (a tick must never reschedule
        # itself at its own fire time).
        k = int(sim.now / self.interval) + 1
        if k * self.interval <= sim.now:
            k += 1
        self._pending = sim.schedule_at(
            k * self.interval,
            self._tick,
            priority=10,  # PRIORITY_LOW: sample after the instant's work
            label="obs timeseries sample",
            wheel=True,
        )

    def _tick(self) -> None:
        self._pending = None
        self.sample()
        self._schedule_next()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Record one point per instrument at the current virtual time.

        Counters record their running total, gauges their current value,
        histograms their ``count`` and ``sum`` (as ``<name>:count`` /
        ``<name>:sum`` — cheap to capture; rates and means are derived
        offline from the ring).
        """
        metrics = self._simulator.obs.metrics
        if metrics is None:
            return
        if (
            metrics is not self._registry
            or len(self._counters) != len(metrics._counters)
            or len(self._gauges) != len(metrics._gauges)
            or len(self._histograms) != len(metrics._histograms)
        ):
            self._rebuild_pairs(metrics)
        self.samples += 1
        self._ticks.append(self._simulator.now)
        # One C-level pass per instrument kind: ``attrgetter`` reads the
        # value, ``call`` hands it to the ring's pre-bound append — no
        # Python frame, no tuple allocation, no hashing per point.
        _DRAIN(map(call, self._counter_appends, map(_VALUE, self._counters)))
        _DRAIN(map(call, self._gauge_appends, map(_VALUE, self._gauges)))
        _DRAIN(
            map(call, self._histogram_count_appends,
                map(_COUNT, self._histograms))
        )
        _DRAIN(
            map(call, self._histogram_sum_appends,
                map(_TOTAL, self._histograms))
        )

    def _rebuild_pairs(self, metrics) -> None:
        """Bring the parallel sampling lists up to date with the registry.

        Registry dicts are insertion-ordered and append-only, so when the
        registry object is unchanged only the *new tail* of each dict
        needs a ring and a rendered name — growth is O(new instruments),
        not O(all instruments), no matter how often it happens.  The
        first tick, or a registry swap, starts over.
        """
        from repro.obs.metrics import format_key

        if metrics is not self._registry:
            self._registry = metrics
            self._counters = []
            self._counter_appends = []
            self._gauges = []
            self._gauge_appends = []
            self._histograms = []
            self._histogram_count_appends = []
            self._histogram_sum_appends = []
        counters = metrics._counters
        if len(counters) > len(self._counters):
            fresh = islice(counters.items(), len(self._counters), None)
            for key, counter in fresh:
                self._counters.append(counter)
                self._counter_appends.append(
                    self._named_ring(format_key(key))._values.append
                )
        gauges = metrics._gauges
        if len(gauges) > len(self._gauges):
            fresh = islice(gauges.items(), len(self._gauges), None)
            for key, gauge in fresh:
                self._gauges.append(gauge)
                self._gauge_appends.append(
                    self._named_ring(format_key(key))._values.append
                )
        histograms = metrics._histograms
        if len(histograms) > len(self._histograms):
            fresh = islice(histograms.items(), len(self._histograms), None)
            for key, histogram in fresh:
                self._histograms.append(histogram)
                name = format_key(key)
                self._histogram_count_appends.append(
                    self._named_ring(name + ":count")._values.append
                )
                self._histogram_sum_appends.append(
                    self._named_ring(name + ":sum")._values.append
                )

    def _named_ring(self, name: str) -> MetricSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = MetricSeries(
                name, self.capacity, times=self._ticks  # shared time column
            )
            series.tick_offset = self.samples
        return series

    def _sync_evictions(self) -> None:
        """Fold the lazily-derived eviction counts into each ring.

        Every ring receives exactly one recorder append per sample tick
        after its creation, so evictions are ``appends - capacity`` —
        computed here on read instead of counted in the hot loop.
        """
        for series in self._series.values():
            appends = self.samples - series.tick_offset
            overflow = appends - (series._values.maxlen or appends)
            if overflow > 0:
                series.evicted = overflow

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._series)

    def series(self, name: str) -> MetricSeries:
        """The ring for ``name`` (empty if never sampled)."""
        found = self._series.get(name)
        if found is None:
            return MetricSeries(name, self.capacity)
        self._sync_evictions()
        return found

    @property
    def evicted(self) -> int:
        """Total points overwritten across every ring."""
        self._sync_evictions()
        return sum(series.evicted for series in self._series.values())

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @property
    def tick_times(self) -> list[float]:
        """Timestamps of the retained ticks (the shared time column)."""
        return list(self._ticks)

    def to_values(self) -> dict[str, list[float]]:
        """Columnar ``{name: [value, ...]}`` of every series.

        Each list is one value per retained tick, aligned with the tail
        of :attr:`tick_times` (a series that appeared mid-run is shorter
        and starts later).  This is the cheap export — straight C copies
        of the value rings, no per-point tuples — used to attach series
        to a :class:`~repro.experiments.trial.TrialResult` without
        measurable cost; use :meth:`to_dict` for paired points.
        """
        return {
            name: list(series._values)
            for name, series in sorted(self._series.items())
        }

    def to_dict(self) -> dict[str, list[tuple[float, float]]]:
        """JSON-ready ``{name: [(t, value), ...]}`` of every series."""
        return {
            name: series.points
            for name, series in sorted(self._series.items())
        }

    def dumps_jsonl(self) -> str:
        """One JSON object per series: ``{"metric", "points"}``."""
        return "\n".join(
            json.dumps(
                {"metric": name, "points": [[t, v] for t, v in series.points]},
                separators=(",", ":"),
            )
            for name, series in sorted(self._series.items())
        )

    def write_jsonl(self, path: str | Path) -> Path:
        target = Path(path)
        body = self.dumps_jsonl()
        target.write_text(body + ("\n" if body else ""))
        return target

    def dumps_csv(self) -> str:
        """Long-form CSV: ``metric,time,value`` rows in name order."""
        lines = ["metric,time,value"]
        for name, series in sorted(self._series.items()):
            if "," in name or '"' in name:
                quoted = '"' + name.replace('"', '""') + '"'
            else:
                quoted = name
            for time, value in series.points:
                lines.append(f"{quoted},{time!r},{value!r}")
        return "\n".join(lines)

    @staticmethod
    def read_jsonl(source: str | Path) -> dict[str, list[tuple[float, float]]]:
        """Parse a JSONL export back into ``{name: [(t, value), ...]}``."""
        out: dict[str, list[tuple[float, float]]] = {}
        for line in Path(source).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            out[record["metric"]] = [
                (float(t), float(v)) for t, v in record["points"]
            ]
        return out
