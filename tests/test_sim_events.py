"""Unit tests for the event queue ordering and cancellation semantics."""

import pytest

from repro.sim.events import (
    _COMPACT_MIN_STORED,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    EventQueue,
)
from repro.sim.wheel import TimerWheel


def test_pop_returns_events_in_time_order():
    q = EventQueue()
    order = []
    q.push(3.0, lambda: order.append("c"))
    q.push(1.0, lambda: order.append("a"))
    q.push(2.0, lambda: order.append("b"))
    while (e := q.pop_due()) is not None:
        e.action()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_insertion_order():
    q = EventQueue()
    order = []
    for name in "abcde":
        q.push(1.0, lambda n=name: order.append(n))
    while (e := q.pop_due()) is not None:
        e.action()
    assert order == list("abcde")


def test_priority_breaks_ties_before_sequence():
    q = EventQueue()
    order = []
    q.push(1.0, lambda: order.append("normal"))
    q.push(1.0, lambda: order.append("low"), priority=PRIORITY_LOW)
    q.push(1.0, lambda: order.append("high"), priority=PRIORITY_HIGH)
    while (e := q.pop_due()) is not None:
        e.action()
    assert order == ["high", "normal", "low"]


def test_cancelled_event_is_skipped():
    q = EventQueue()
    keep = q.push(2.0, lambda: "keep")
    drop = q.push(1.0, lambda: "drop")
    drop.cancel()
    assert q.pop_due() is keep
    assert q.pop_due() is None


def test_len_tracks_live_events_through_cancel():
    q = EventQueue()
    a = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    a.cancel()
    assert len(q) == 1
    a.cancel()  # idempotent
    assert len(q) == 1


def test_peek_time_skips_cancelled_head():
    q = EventQueue()
    head = q.push(1.0, lambda: None)
    q.push(5.0, lambda: None)
    head.cancel()
    assert q.peek_time() == 5.0


def test_negative_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(-0.1, lambda: None)


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.pop_due() is None
    assert not q


def test_clear_empties_wheel_backed_queue():
    q = EventQueue(wheel=TimerWheel())
    q.push(1.0, lambda: None, wheel=True)
    q.push(2.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.pop_due() is None


def test_cancel_after_clear_keeps_live_count():
    q = EventQueue(wheel=TimerWheel())
    stale = [q.push(1.0, lambda: None), q.push(2.0, lambda: None, wheel=True)]
    q.clear()
    for event in stale:
        event.cancel()
    assert len(q) == 0
    q.push(3.0, lambda: None)
    assert len(q) == 1
    assert q.pop_due() is not None


def test_cancel_after_fire_does_not_corrupt_live_count():
    q = EventQueue()
    fired = q.push(1.0, (lambda: None))
    q.push(2.0, (lambda: None))
    assert q.pop_due() is fired
    fired.cancel()  # late cancel of an already-fired event
    assert len(q) == 1  # the pending event is still accounted live
    assert q.pop_due() is not None


def test_event_args_passed_to_action():
    q = EventQueue()
    hits = []
    q.push(1.0, hits.append, args=("payload",))
    event = q.pop_due()
    event.action(*event.args)
    assert hits == ["payload"]


def test_pop_due_respects_until_and_leaves_later_events():
    q = EventQueue()
    q.push(1.0, lambda: "a", label="a")
    q.push(5.0, lambda: "b", label="b")
    assert q.pop_due(2.0).label == "a"
    assert q.pop_due(2.0) is None
    assert len(q) == 1  # the later event is still there
    assert q.pop_due(None).label == "b"
    assert q.pop_due(None) is None


def test_pop_due_includes_events_exactly_at_until():
    q = EventQueue()
    q.push(2.0, lambda: None, label="edge")
    assert q.pop_due(2.0).label == "edge"


def test_cancelled_fraction_tracks_corpses():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(10)]
    assert q.cancelled_fraction == 0.0
    for event in events[:4]:
        event.cancel()
    assert q.cancelled_fraction == pytest.approx(0.4)


def test_compaction_triggers_above_half_cancelled():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(_COMPACT_MIN_STORED * 2)]
    compacted_at = None
    for cancelled, event in enumerate(events[:-1], start=1):
        event.cancel()
        if compacted_at is None and q.compactions:
            compacted_at = cancelled
            # the compaction pass physically removed every corpse
            assert q.stored == len(q)
            assert q.cancelled_fraction == 0.0
    # it fired as soon as corpses became the majority, not at the end
    assert compacted_at == _COMPACT_MIN_STORED + 1


def test_compaction_preserves_pop_order():
    q = EventQueue(wheel=TimerWheel(granularity=0.5, num_slots=8))
    survivors = []
    corpses = []
    for i in range(_COMPACT_MIN_STORED * 2):
        # interleave heap and wheel entries, same times, varied priorities
        event = q.push(
            float(i % 7),
            lambda: None,
            priority=(i % 3) - 1,
            label=f"e{i}",
            wheel=(i % 2 == 0),
        )
        (survivors if i % 3 == 0 else corpses).append(event)
    expected = sorted(
        survivors, key=lambda e: (e.time, e.priority, e.sequence)
    )
    for event in corpses:
        event.cancel()
    assert q.compactions >= 1
    popped = []
    while (e := q.pop_due()) is not None:
        popped.append(e)
    assert popped == expected


def test_small_queues_never_compact():
    q = EventQueue()
    events = [q.push(1.0, lambda: None) for _ in range(_COMPACT_MIN_STORED - 1)]
    for event in events:
        event.cancel()
    assert q.compactions == 0
