"""The simulator: a virtual clock draining an event queue.

The whole reproduction is built on this loop.  Nodes, channels, timers and
protocols never sleep or poll; they schedule callbacks at absolute virtual
times and the simulator executes them in deterministic order.

The loop pulls events through :meth:`EventQueue.pop_due
<repro.sim.events.EventQueue.pop_due>` — one heap access per iteration —
and dispatches them as ``action(*args)``, so hot paths can schedule bound
methods with arguments instead of allocating a closure per packet.
Timer-class work goes through the queue's
:class:`~repro.sim.wheel.TimerWheel` (``schedule(..., wheel=True)``);
ordering is byte-identical to a heap-only queue's, which
`tests/test_eventloop_equivalence.py` pins against a heap-only oracle.

Observability hangs off ``sim.obs`` (see :mod:`repro.obs`): when a
profiler is enabled the loop times each event and tracks queue depth;
when nothing is enabled the loop body pays a single ``None`` check.
Queue health (pending count, compactions, cancelled fraction, wheel
occupancy) is mirrored into the metrics registry at the end of each
``run``.
"""

from __future__ import annotations

from typing import Any, Callable

from heapq import heappop

from repro.obs import Observability
from repro.sim.events import Event, EventQueue, PRIORITY_NORMAL
from repro.sim.logging import WARNING, SimLogger
from repro.sim.rng import RandomStreams


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly.

    Examples: scheduling into the past, or running a simulator that was
    already stopped with ``reset=False``.
    """


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, args=("tick",))
    >>> sim.run()
    >>> fired
    ['tick']
    """

    def __init__(self, *, seed: int = 0, log_level: int | None = None) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        self.streams = RandomStreams(seed)
        self.logger = SimLogger(
            self, level=WARNING if log_level is None else log_level
        )
        self.obs = Observability(self)
        self._running = False
        self._stopped = False
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        *,
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        label: str = "",
        wheel: bool = False,
    ) -> Event:
        """Schedule ``action(*args)`` to run ``delay`` seconds from now.

        ``wheel=True`` files the event in the timer wheel (see
        :meth:`EventQueue.push <repro.sim.events.EventQueue.push>`); use
        it for timeouts that are usually cancelled or restarted.
        """
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay!r})"
            )
        return self.queue.push(
            self.now + delay,
            action,
            args=args,
            priority=priority,
            label=label,
            wheel=wheel,
        )

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        *,
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        label: str = "",
        wheel: bool = False,
    ) -> Event:
        """Schedule ``action(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, already at t={self.now!r}"
            )
        return self.queue.push(
            time,
            action,
            args=args,
            priority=priority,
            label=label,
            wheel=wheel,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, *, max_events: int | None = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is then
            advanced exactly to ``until`` so follow-up ``run`` calls and
            position lookups see a consistent "current" time.
        max_events:
            Safety valve for runaway protocols; raises
            :class:`SimulationError` when exceeded.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        executed = 0
        queue = self.queue
        # EventQueue.pop_due is inlined below (kept verbatim on the
        # queue for external callers): at packet-path rates its call
        # frame per event is a measurable share of the loop.
        heap = queue._heap
        wheel = queue.wheel
        deadline = float("inf") if until is None else until
        profiler = self.obs.profiler
        if profiler is not None:
            profiler.begin_run(self.now)
        try:
            if profiler is not None:
                clock = profiler.clock
                record = profiler.record
                by_label = profiler._by_label
                high_water = profiler.queue_high_water
                # Per-label accounting is inlined for known labels (dict
                # hit) and batched into locals; record() handles new
                # labels and the label cap, and the finally block flushes
                # the batched totals even on an exception mid-run.
                inlined_events = 0
                inlined_busy = 0.0
                try:
                    while not self._stopped:
                        # -- inline EventQueue.pop_due(until) --
                        while True:
                            if wheel.stored:
                                if not heap:
                                    wheel.flush_next(heap)
                                elif wheel.frontier <= heap[0][0]:
                                    wheel.flush_until(heap[0][0], heap)
                            if not heap:
                                event = None
                                break
                            entry = heap[0]
                            event = entry[3]
                            if event.cancelled:
                                heappop(heap)
                                continue
                            if entry[0] > deadline:
                                event = None
                                break
                            heappop(heap)
                            queue._live -= 1
                            event._queue = None
                            break
                        if event is None:
                            break
                        self.now = event.time
                        depth = queue._live + 1
                        if depth > high_water:
                            high_water = depth
                        started = clock()
                        event.action(*event.args)
                        seconds = clock() - started
                        entry = by_label.get(event.label)
                        if entry is not None:
                            entry[0] += 1
                            entry[1] += seconds
                            inlined_events += 1
                            inlined_busy += seconds
                        else:
                            record(event.label, seconds)
                        executed += 1
                        if max_events is not None and executed >= max_events:
                            raise SimulationError(
                                f"exceeded max_events={max_events} "
                                f"(last event: {event.label or event.action!r})"
                            )
                finally:
                    profiler.queue_high_water = high_water
                    profiler.events += inlined_events
                    profiler.busy_seconds += inlined_busy
            else:
                while not self._stopped:
                    # -- inline EventQueue.pop_due(until) --
                    while True:
                        if wheel.stored:
                            if not heap:
                                wheel.flush_next(heap)
                            elif wheel.frontier <= heap[0][0]:
                                wheel.flush_until(heap[0][0], heap)
                        if not heap:
                            event = None
                            break
                        entry = heap[0]
                        event = entry[3]
                        if event.cancelled:
                            heappop(heap)
                            continue
                        if entry[0] > deadline:
                            event = None
                            break
                        heappop(heap)
                        queue._live -= 1
                        event._queue = None
                        break
                    if event is None:
                        break
                    self.now = event.time
                    event.action(*event.args)
                    executed += 1
                    if max_events is not None and executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"(last event: {event.label or event.action!r})"
                        )
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
            self.events_executed += executed
            if profiler is not None:
                profiler.end_run(self.now)
            self._publish_queue_metrics()

    def step(self) -> bool:
        """Execute exactly one event.  Returns ``False`` when idle.

        Mirrors :meth:`run`'s guards: calling ``step`` from inside an
        executing event raises (re-entrancy), and a pending :meth:`stop`
        is honoured — the next ``step`` returns ``False`` without
        executing and clears the flag, exactly as a fresh ``run`` would.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant step)")
        if self._stopped:
            self._stopped = False
            return False
        event = self.queue.pop()
        if event is None:
            return False
        self._running = True
        profiler = self.obs.profiler
        try:
            self.now = event.time
            if profiler is not None:
                profiler.note_queue_depth(len(self.queue) + 1)
                profiler.begin_run(self.now)
                started = profiler.clock()
                event.action(*event.args)
                profiler.record(event.label, profiler.clock() - started)
            else:
                event.action(*event.args)
            self.events_executed += 1
        finally:
            self._running = False
            if profiler is not None:
                profiler.end_run(self.now)
        return True

    def stop(self) -> None:
        """Stop ``run`` after the currently executing event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _publish_queue_metrics(self) -> None:
        """Mirror queue/wheel health into the metrics registry.

        Called once per ``run``, never per event, so the cost is noise.
        """
        metrics = self.obs.metrics
        if metrics is None:
            return
        queue = self.queue
        metrics.gauge("sim.queue.pending").pin(len(queue), queue.high_water)
        metrics.gauge("sim.queue.compactions").set(queue.compactions)
        metrics.gauge("sim.queue.cancelled_fraction").pin(
            round(queue.cancelled_fraction, 6),
            round(queue.peak_cancelled_fraction, 6),
        )
        wheel = queue.wheel
        metrics.gauge("sim.wheel.pending").pin(wheel.stored, wheel.stored_high_water)
        metrics.gauge("sim.wheel.flushed").set(wheel.flushed)
        metrics.gauge("sim.wheel.pruned").set(wheel.pruned)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def rng(self, name: str):
        """Shorthand for ``self.streams.stream(name)``."""
        return self.streams.stream(name)

    def pending(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self.queue)
