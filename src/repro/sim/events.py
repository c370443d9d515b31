"""Event objects and the priority queue that orders them.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
is assigned on insertion, which makes the execution order of same-time,
same-priority events identical to their scheduling order.  Determinism of
this ordering is what makes every experiment in the reproduction
repeatable from a seed.

Three implementation choices keep the hot path fast without changing
that contract:

- the heap stores plain ``(time, priority, sequence, event)`` tuples, so
  ``heapq`` sift comparisons resolve on the first differing number at C
  speed and never call back into :class:`Event` (sequence numbers are
  unique, so the trailing event object is never compared);
- :class:`Event` is a ``__slots__`` class carrying an ``args`` tuple, so
  callers can schedule bound methods with arguments instead of
  allocating a capture-closure per packet;
- timer-class work pushed with ``wheel=True`` is filed in the queue's
  hierarchical :class:`~repro.sim.wheel.TimerWheel` and only migrates
  into the heap when the loop approaches its slot.  Wheel entries draw
  sequence numbers from the same counter at scheduling time, so the
  merged execution order is identical to a heap-only queue's (the
  equivalence tests pin it against a heap-only oracle whose wheel
  refuses every entry).

Cancellation stays lazy (a flag checked when an entry surfaces), but the
queue now tracks its :attr:`~EventQueue.cancelled_fraction` and compacts
itself once more than half of the stored entries are corpses, so
restart-heavy timers no longer grow the heap without bound.

Deferred legs
-------------
A broadcast's delivery *train* (:mod:`repro.net.network`) is one event
that fires once per leg: only the next leg sits in the heap, and the
rest wait inside the train.  The queue still counts every deferred leg
as pending — in ``len()``, :attr:`~EventQueue.high_water`,
:attr:`~EventQueue.stored` and :attr:`~EventQueue.cancelled_fraction` —
so every gauge and the compaction trigger read exactly as if each leg
had its own heap entry.  :meth:`EventQueue.defer` reserves the legs'
sequence numbers and counts them; cancelling the train's event retires
the legs still deferred and drops the train from its network's table
(:attr:`EventQueue.train_tables`).  The train itself
(:meth:`Network._arrive_train <repro.net.network.Network._arrive_train>`)
files its next leg under the next reserved number when a leg fires, and
then *drains*: while the heap's top entry is another leg of the same
network, due within the running ``until`` and ahead of anything the
timer wheel holds, it pops and delivers that leg itself, doing the
loop's bookkeeping (live count, detach, clock, executed count) for it.
Execution order is the heap's order either way; only the trip back
through :meth:`Simulator.run <repro.sim.simulator.Simulator.run>` is
saved.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.sim.wheel import TimerWheel

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Runs before normal events scheduled for the same instant (e.g. mobility
#: updates should land before packet deliveries at the same timestamp).
PRIORITY_HIGH = -10
#: Runs after normal events at the same instant (e.g. bookkeeping).
PRIORITY_LOW = 10

#: Queues smaller than this never compact — the win would not cover the
#: rebuild cost.
_COMPACT_MIN_STORED = 64


class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Absolute virtual time (seconds) at which the event fires.
    priority:
        Tie-breaker for events at the same time; lower runs first.
    sequence:
        Insertion counter, the final tie-breaker.
    action:
        Callable executed as ``action(*args)`` when the event fires.
    args:
        Positional arguments for ``action``; lets callers schedule bound
        methods directly instead of wrapping them in closures.
    label:
        Human-readable description used in error messages and traces.
    cancelled:
        Cancelled events stay filed but are skipped when they surface.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "action",
        "args",
        "label",
        "cancelled",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        action: Callable[..., Any],
        args: tuple = (),
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.args = args
        self.label = label
        self.cancelled = False
        self._queue: EventQueue | None = None

    def cancel(self) -> None:
        """Mark this event so the queue skips it when it surfaces.

        Safe after the event fired: dispatch detaches the event from its
        queue, so a late cancel no longer perturbs the live-event
        accounting.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancelled(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"<Event t={self.time!r} p={self.priority} "
            f"#{self.sequence} {self.label!r}{state}>"
        )


class EventQueue:
    """A tuple-keyed heap of :class:`Event` objects with lazy cancellation,
    backed by a :class:`~repro.sim.wheel.TimerWheel` for timer-class work.

    ``wheel`` injects a wheel of another geometry; by default the queue
    builds one with the default geometry.

    >>> q = EventQueue()
    >>> e = q.push(1.0, lambda: None, label="hello")
    >>> q.peek_time()
    1.0
    >>> e.cancel()
    >>> q.pop_due() is None  # drained: the only event was cancelled
    True
    """

    def __init__(self, *, wheel: TimerWheel | None = None) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        #: next sequence number to hand out
        self._sequence = 0
        #: pending live events, deferred train legs included
        self._live = 0
        #: train legs held outside the heap (counted in ``_live``)
        self._deferred = 0
        #: the in-flight delivery-train tables (carrying event -> train)
        #: of the networks scheduling on this queue; cancelling a
        #: train's event retires its deferred legs through them
        self.train_tables: list[dict] = []
        self.wheel = wheel if wheel is not None else TimerWheel()
        #: number of times the queue rebuilt itself to shed corpses
        self.compactions = 0
        #: most live events ever pending at once; tracked on push so the
        #: published peak does not depend on when metrics are sampled
        self.high_water = 0
        #: worst corpse fraction observed at a cancellation instant
        self.peak_cancelled_fraction = 0.0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        action: Callable[..., Any],
        *,
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        label: str = "",
        wheel: bool = False,
    ) -> Event:
        """Insert an event and return a handle that can be cancelled.

        ``wheel=True`` marks timer-class work (likely to be cancelled or
        restarted before firing): it is filed in the timer wheel,
        falling back to the heap when the target slot has already been
        flushed.  Ordering is identical either way.
        """
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time!r}")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, action, args, label)
        event._queue = self
        if not (wheel and self.wheel.insert(event)):
            heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        if self._live > self.high_water:
            self.high_water = self._live
        return event

    def push_delivery(
        self,
        time: float,
        action: Callable[..., Any],
        args: tuple,
        label: str,
        _ignored: object,
    ) -> Event:
        """Positional fast path of :meth:`push` for delivery fan-out.

        Semantically ``push(time, action, args=args, label=label)`` —
        same shared sequence counter, same heap entry — minus the
        keyword-argument plumbing and the wheel/validity branches the
        radio fan-out never takes.  The network schedules thousands of
        these per flood round; shaving the call overhead here is worth
        the duplication.  ``time`` must be non-negative (callers derive
        it as ``now + delay`` with validated non-negative delays).  The
        fifth parameter is ignored (callers pass ``None``); it keeps the
        positional signature that instrumentation wrapping this method
        expects.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, PRIORITY_NORMAL, sequence, action, args, label)
        event._queue = self
        heappush(self._heap, (time, PRIORITY_NORMAL, sequence, event))
        live = self._live = self._live + 1
        if live > self.high_water:
            self.high_water = live
        return event

    def defer(self, legs: int) -> None:
        """Count ``legs`` train legs held outside the heap as pending.

        Called right after :meth:`push_delivery` filed a train's first
        leg: reserves the sequence numbers that follow it, one per
        deferred leg, and counts the legs as live and stored, so the
        queue reads exactly as if every leg had been pushed on its own.
        """
        self._sequence += legs
        self._deferred += legs
        live = self._live = self._live + legs
        if live > self.high_water:
            self.high_water = live

    # ------------------------------------------------------------------
    # Corpse accounting
    # ------------------------------------------------------------------
    @property
    def stored(self) -> int:
        """Entries held: live plus lazily-cancelled corpses, with each
        deferred train leg counted as the heap entry it stands for."""
        return len(self._heap) + self._deferred + self.wheel.stored

    @property
    def cancelled_fraction(self) -> float:
        """Fraction of stored entries that are cancelled corpses."""
        stored = self.stored
        return (stored - self._live) / stored if stored else 0.0

    def _note_cancelled(self, event: Event) -> None:
        self._live -= 1
        for trains in self.train_tables:
            train = trains.pop(event, None)
            if train is not None:
                # The train's later legs will never be filed: retire
                # them with it, and break the train/event cycle.
                legs = len(train.order)
                self._live -= legs
                self._deferred -= legs
                train.event = None
                break
        stored = self.stored
        if stored:
            fraction = (stored - self._live) / stored
            if fraction > self.peak_cancelled_fraction:
                self.peak_cancelled_fraction = fraction
        if stored >= _COMPACT_MIN_STORED and (stored - self._live) * 2 > stored:
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without corpses and prune the wheel.

        Mutates the heap list in place so aliases held by an in-flight
        pop loop stay valid.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self.wheel.prune()
        self.compactions += 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _sync_wheel(self) -> None:
        """Migrate wheel entries due at or before the heap's minimum.

        After this, the heap's minimum (if any) is globally minimal:
        every entry still in the wheel fires strictly later.
        """
        wheel = self.wheel
        if not wheel.stored:
            return
        heap = self._heap
        if not heap:
            wheel.flush_next(heap)
        elif wheel.frontier <= heap[0][0]:
            wheel.flush_until(heap[0][0], heap)

    def pop_due(self, until: float | None = None) -> Event | None:
        """Pop the earliest live event due at or before ``until``
        (``None``: any time) — the queue's only pop.

        Returns ``None`` when the queue is empty or the next live event
        fires after ``until`` (that event is left in place).  Cancelled
        entries met on the way are discarded, and the popped event is
        detached, so a ``cancel()`` arriving after it fired does not
        move the live count.  Fuses the peek/pop pair and the wheel
        synchronisation into one heap access per iteration; the
        unprofiled loop of :meth:`Simulator.run
        <repro.sim.simulator.Simulator.run>` inlines this body.
        """
        heap = self._heap
        wheel = self.wheel
        while True:
            # inline _sync_wheel: this runs once per executed event
            if wheel.stored:
                if not heap:
                    wheel.flush_next(heap)
                elif wheel.frontier <= heap[0][0]:
                    wheel.flush_until(heap[0][0], heap)
            if not heap:
                return None
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(heap)
            self._live -= 1
            event._queue = None
            return event

    def peek_time(self) -> float | None:
        """Return the fire time of the next live event without removing it."""
        heap = self._heap
        while True:
            self._sync_wheel()
            if not heap:
                return None
            if heap[0][3].cancelled:
                heappop(heap)
                continue
            return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event.

        Dropped events are detached from the queue, so cancelling a
        stale handle afterwards no longer moves the live count, and
        stripped of their action and arguments, so a handle still held
        elsewhere (a timer, a pending discovery) no longer keeps the
        objects that scheduled it alive.
        """
        for entry in self._heap:
            event = entry[3]
            event._queue = None
            event.action = None
            event.args = ()
        self._heap.clear()
        self.wheel.clear()
        self._live = 0
        self._deferred = 0
