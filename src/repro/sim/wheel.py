"""Hierarchical timer wheel for periodic and restartable work.

Hello beacons, route-lifetime expiry and verification-table timeouts
dominate the event mix in dense sweeps, and most of those timers are
restarted or cancelled long before they fire.  Keeping them in the main
heap means every restart pays O(log n) and leaves a lazily-cancelled
corpse behind; the wheel files them in O(1) buckets instead and only
migrates the survivors into the heap when the loop approaches their
slot.

Two levels:

- a **near wheel** of ``num_slots`` buckets, each ``granularity``
  seconds wide, covering one *window* of ``granularity * num_slots``
  seconds;
- a **far level**, a dict keyed by window index, holding everything
  beyond the current window.  When the cursor wraps, the next window's
  entries cascade into the near buckets.

Determinism contract: entries are :class:`~repro.sim.events.Event`
objects that drew their ``sequence`` number from the *same* counter as
heap-scheduled events.  A bucket is flushed into the heap as plain
``(time, priority, sequence, event)`` tuples *before* the loop reaches
the bucket's start time, so the merged pop order is exactly what a
heap-only queue would have produced.  The wheel never reorders anything;
it only defers the O(log n) heap insertion (and skips it entirely for
entries cancelled while still in a bucket).
"""

from __future__ import annotations

import itertools
from heapq import heappush
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.events import Event

#: Default bucket width in virtual seconds.  Protocol timeouts here range
#: from 0.1 s probe timeouts to 30 s route lifetimes; 0.25 s buckets keep
#: same-bucket flushes small while a 256-slot window (64 s) spans every
#: periodic interval in the reproduction without touching the far level.
DEFAULT_GRANULARITY = 0.25
DEFAULT_NUM_SLOTS = 256


class TimerWheel:
    """Two-level timer wheel feeding an event heap.

    The wheel tracks a *frontier*: the start time of the earliest slot
    that has not yet been flushed.  :meth:`insert` refuses entries whose
    slot is already behind the frontier (the caller falls back to the
    heap), which is what lets flushed slots be discarded for good.
    """

    __slots__ = (
        "granularity",
        "num_slots",
        "span",
        "frontier",
        "_slots",
        "_far",
        "_window",
        "_cursor",
        "_near_count",
        "stored",
        "stored_high_water",
        "flushed",
        "pruned",
    )

    def __init__(
        self,
        granularity: float = DEFAULT_GRANULARITY,
        num_slots: int = DEFAULT_NUM_SLOTS,
    ) -> None:
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity!r}")
        if num_slots < 2:
            raise ValueError(f"need at least 2 slots, got {num_slots!r}")
        self.granularity = granularity
        self.num_slots = num_slots
        self.span = granularity * num_slots
        self._slots: list[list[Event]] = [[] for _ in range(num_slots)]
        self._far: dict[int, list[Event]] = {}
        self._window = 0
        self._cursor = 0
        self._near_count = 0
        #: start time of the earliest slot not yet flushed; kept as a
        #: plain attribute because the queue reads it on every pop
        self.frontier = 0.0
        #: entries currently filed (live + cancelled corpses)
        self.stored = 0
        #: most entries ever filed at once; tracked on insert so the
        #: published peak is independent of metrics sampling cadence
        self.stored_high_water = 0
        #: live entries migrated into the heap over the wheel's lifetime
        self.flushed = 0
        #: cancelled entries dropped without ever touching the heap
        self.pruned = 0

    # ------------------------------------------------------------------
    # Filing
    # ------------------------------------------------------------------
    def insert(self, event: Event) -> bool:
        """File ``event`` in its bucket.

        Returns ``False`` when the event's slot has already been flushed
        (its time is below the frontier); the caller must push it onto
        the heap directly.
        """
        index = int(event.time / self.granularity)
        if index < self._window * self.num_slots + self._cursor:
            return False
        window, slot = divmod(index, self.num_slots)
        if window == self._window:
            self._slots[slot].append(event)
            self._near_count += 1
        else:
            self._far.setdefault(window, []).append(event)
        self.stored += 1
        if self.stored > self.stored_high_water:
            self.stored_high_water = self.stored
        return True

    # ------------------------------------------------------------------
    # Flushing into the heap
    # ------------------------------------------------------------------
    def flush_until(self, horizon: float, heap: list) -> None:
        """Flush every slot starting at or before ``horizon`` into ``heap``.

        After this returns, every remaining wheel entry fires strictly
        after ``horizon``; a heap whose minimum is ``horizon`` can be
        popped without consulting the wheel again.
        """
        target = int(horizon / self.granularity)
        while True:
            if self._window * self.num_slots + self._cursor > target:
                return
            if not self.stored:
                self._jump(target + 1)
                return
            if not self._near_count:
                first = min(self._far) * self.num_slots
                if first > target:
                    self._jump(target + 1)
                    return
                self._jump(first)
                continue
            bucket = self._slots[self._cursor]
            if bucket:
                self._flush_slot(bucket, heap)
            self._advance()

    def flush_next(self, heap: list) -> None:
        """Flush slots until at least one live entry lands in ``heap``.

        Used when the heap has drained: the earliest pending event (if
        any) lives in the wheel and must surface.  Buckets holding only
        cancelled corpses are pruned and skipped.
        """
        while self.stored:
            if not self._near_count:
                self._jump(min(self._far) * self.num_slots)
                continue
            bucket = self._slots[self._cursor]
            emitted = self._flush_slot(bucket, heap) if bucket else 0
            self._advance()
            if emitted:
                return

    def _flush_slot(self, bucket: list, heap: list) -> int:
        emitted = 0
        for event in bucket:
            if event.cancelled:
                self.pruned += 1
            else:
                heappush(heap, (event.time, event.priority, event.sequence, event))
                emitted += 1
        count = len(bucket)
        bucket.clear()
        self.stored -= count
        self._near_count -= count
        self.flushed += emitted
        return emitted

    def _advance(self) -> None:
        self._cursor += 1
        if self._cursor == self.num_slots:
            self._cursor = 0
            self._window += 1
            self._load_window(self._window)
        self.frontier = (
            self._window * self.num_slots + self._cursor
        ) * self.granularity

    def _jump(self, index: int) -> None:
        """Move the frontier directly to absolute slot ``index``.

        Only legal when no entry is filed before ``index`` — callers
        guarantee this, so windows skipped over are necessarily empty.
        """
        window, cursor = divmod(index, self.num_slots)
        if window != self._window:
            self._window = window
            self._load_window(window)
        self._cursor = cursor
        self.frontier = index * self.granularity

    def _load_window(self, window: int) -> None:
        entries = self._far.pop(window, None)
        if not entries:
            return
        base = window * self.num_slots
        slots = self._slots
        granularity = self.granularity
        for event in entries:
            slots[int(event.time / granularity) - base].append(event)
        self._near_count += len(entries)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Drop cancelled entries from every bucket; returns the count.

        The wheel half of :meth:`EventQueue.compact
        <repro.sim.events.EventQueue.compact>`.
        """
        removed = 0
        for bucket in self._slots:
            if bucket:
                kept = [event for event in bucket if not event.cancelled]
                removed += len(bucket) - len(kept)
                bucket[:] = kept
        for window in list(self._far):
            kept = [event for event in self._far[window] if not event.cancelled]
            removed += len(self._far[window]) - len(kept)
            if kept:
                self._far[window] = kept
            else:
                del self._far[window]
        self._near_count = sum(len(bucket) for bucket in self._slots)
        self.stored -= removed
        self.pruned += removed
        return removed

    def clear(self) -> None:
        """Drop every filed entry, detached from its queue (a stale
        handle's ``cancel()`` is then a no-op) and stripped of its
        action and arguments; the frontier stays where it is."""
        for bucket in itertools.chain(self._slots, self._far.values()):
            for event in bucket:
                event._queue = None
                event.action = None
                event.args = ()
            bucket.clear()
        self._far.clear()
        self._near_count = 0
        self.stored = 0
