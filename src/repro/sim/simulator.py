"""The simulator: a virtual clock draining an event queue.

The whole reproduction is built on this loop.  Nodes, channels, timers and
protocols never sleep or poll; they schedule callbacks at absolute virtual
times and the simulator executes them in deterministic order.

``run`` holds the one inlined pop loop: it pulls events as
:meth:`EventQueue.pop_due <repro.sim.events.EventQueue.pop_due>` would —
one heap access per iteration — and dispatches them as
``action(*args)``, so hot paths can schedule bound methods with
arguments instead of allocating a closure per packet.  Timer-class work
goes through the queue's :class:`~repro.sim.wheel.TimerWheel`
(``schedule(..., wheel=True)``); ordering is byte-identical to a
heap-only queue's, which `tests/test_eventloop_equivalence.py` pins
against a heap-only oracle.

While that loop runs, ``run`` exposes its ``until`` horizon and its
``max_events`` limit to the event it dispatches, and counts executed
events on the simulator itself.  A broadcast delivery train
(:meth:`Network._arrive_train <repro.net.network.Network._arrive_train>`)
uses them to drain the legs due next in place, with the loop's
bookkeeping for each, and hands back to the loop whenever the loop
would do anything else.

Profiled runs and :meth:`Simulator.step` share one generic per-event
path instead: ``pop_due`` plus :meth:`Simulator._execute`, which sets the
clock, times the action through the profiler
(:class:`~repro.obs.profiler.RunProfiler`) when one is attached, and
counts the event.  They never drain, so the profiler times every leg
under its own label, and its event count equals
:attr:`Simulator.events_executed`.  Observability hangs off ``sim.obs``
(see :mod:`repro.obs`); when no profiler is attached the loop pays one
``None`` check per ``run``.  Queue health (pending count, compactions,
cancelled fraction, wheel occupancy) is mirrored into the metrics
registry at the end of each ``run``.
"""

from __future__ import annotations

from typing import Any, Callable

from heapq import heappop

from repro.obs import Observability, RunProfiler
from repro.sim.events import Event, EventQueue, PRIORITY_NORMAL
from repro.sim.logging import WARNING, SimLogger
from repro.sim.rng import RandomStreams


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly.

    Examples: scheduling into the past, or running a simulator that was
    already stopped with ``reset=False``.
    """


def _exceeded(max_events: int | None, event: Event) -> SimulationError:
    return SimulationError(
        f"exceeded max_events={max_events} "
        f"(last event: {event.label or event.action!r})"
    )


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
        #: the running ``until`` (``inf`` for none) while the unprofiled
        #: loop of :meth:`run` drives; ``-inf`` otherwise, so every leg
        #: a delivery train could drain in place lies past it
        self._horizon = float("-inf")
        #: :attr:`events_executed` value at which ``run`` raises its
        #: ``max_events`` error (``inf`` for no limit)
        self._limit = float("inf")

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

        Unprofiled, this is the one inlined pop loop (see the module
        docstring).  With a profiler attached, each event goes through
        :meth:`EventQueue.pop_due <repro.sim.events.EventQueue.pop_due>`
        and :meth:`_execute`, the path :meth:`step` takes too.

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
        queue = self.queue
        deadline = float("inf") if until is None else until
        # The executed count lives on the simulator: a delivery train
        # that drains its legs in place (Network._arrive_train) counts
        # each one there, and stops at the ``max_events`` limit and at
        # ``until``.
        limit = float("inf")
        if max_events is not None:
            limit = self.events_executed + max_events
        profiler = self.obs.profiler
        if profiler is not None:
            profiler.begin_run(self.now)
        try:
            if profiler is not None:
                # _horizon stays -inf, so no train drains: every leg is
                # timed under its own label.
                while not self._stopped:
                    event = queue.pop_due(until)
                    if event is None:
                        break
                    self._execute(event, profiler)
                    if self.events_executed >= limit:
                        raise _exceeded(max_events, event)
            else:
                # EventQueue.pop_due is inlined below: at packet-path
                # rates its call frame per event is a measurable share
                # of the loop.
                heap = queue._heap
                wheel = queue.wheel
                self._limit = limit
                self._horizon = deadline
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
                    executed = self.events_executed = self.events_executed + 1
                    if executed >= limit:
                        raise _exceeded(max_events, event)
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
            self._horizon = float("-inf")
            self._limit = float("inf")
            if profiler is not None:
                profiler.end_run(self.now)
            self._publish_queue_metrics()

    def step(self) -> bool:
        """Execute exactly one event.  Returns ``False`` when idle.

        Takes the same per-event path as a profiled :meth:`run`
        (:meth:`_execute`), and mirrors ``run``'s guards: calling
        ``step`` from inside an executing event raises (re-entrancy),
        and a pending :meth:`stop` is honoured — the next ``step``
        returns ``False`` without executing and clears the flag, exactly
        as a fresh ``run`` would.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant step)")
        if self._stopped:
            self._stopped = False
            return False
        event = self.queue.pop_due()
        if event is None:
            return False
        self._running = True
        profiler = self.obs.profiler
        if profiler is not None:
            profiler.begin_run(self.now)
        try:
            self._execute(event, profiler)
        finally:
            self._running = False
            if profiler is not None:
                profiler.end_run(self.now)
        return True

    def _execute(self, event: Event, profiler: RunProfiler | None) -> None:
        """Advance the clock to ``event``, run it and count it; with a
        ``profiler``, note the queue depth and time the action under the
        event's label."""
        self.now = event.time
        if profiler is None:
            event.action(*event.args)
        else:
            profiler.note_queue_depth(len(self.queue) + 1)
            clock = profiler.clock
            started = clock()
            event.action(*event.args)
            profiler.record(event.label, clock() - started)
        self.events_executed += 1

    def stop(self) -> None:
        """Stop ``run`` after the currently executing event returns."""
        self._stopped = True

    def close(self) -> None:
        """Drop every pending event: a finished world will not run again.

        Pending events hold bound methods of the nodes and protocols
        that scheduled them, so dropping them breaks the simulator's
        share of the world's reference cycles (see
        :meth:`World.close <repro.experiments.world.World.close>`).
        The observability hub and the logger point back at the
        simulator, so both are dropped too.  Counters such as
        :attr:`events_executed` stay readable.
        """
        self.queue.clear()
        self.obs = None
        self.logger = None

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
