"""Timer-wheel tests: ordering equivalence with the plain heap.

The wheel's single job is to defer heap insertion without ever changing
the ``(time, priority, sequence)`` execution order.  These tests pit a
wheel-backed queue against a heap-only queue under adversarial
schedules — ties, far windows, cancels, inserts behind the frontier —
and require identical pop sequences.
"""

import random

import pytest

from repro.sim import Simulator, Timer
from repro.sim.events import EventQueue
from repro.sim.wheel import TimerWheel
from tests.helpers import refuse_wheel_insert


def drain(queue):
    labels = []
    while (event := queue.pop_due()) is not None:
        labels.append((event.time, event.label))
    return labels


def test_wheel_entries_merge_in_time_order():
    q = EventQueue(wheel=TimerWheel(granularity=0.5, num_slots=4))
    q.push(1.7, lambda: None, label="wheel-late", wheel=True)
    q.push(0.3, lambda: None, label="heap-early")
    q.push(0.9, lambda: None, label="wheel-mid", wheel=True)
    assert [label for _, label in drain(q)] == [
        "heap-early",
        "wheel-mid",
        "wheel-late",
    ]


def test_same_time_wheel_and_heap_entries_keep_insertion_order():
    q = EventQueue(wheel=TimerWheel(granularity=0.5, num_slots=4))
    order = ["wheel-first", "heap-second", "wheel-third"]
    q.push(1.0, lambda: None, label=order[0], wheel=True)
    q.push(1.0, lambda: None, label=order[1])
    q.push(1.0, lambda: None, label=order[2], wheel=True)
    assert [label for _, label in drain(q)] == order


def test_far_window_entries_cascade_into_near_slots():
    wheel = TimerWheel(granularity=0.5, num_slots=4)  # window spans 2 s
    q = EventQueue(wheel=wheel)
    q.push(11.2, lambda: None, label="far", wheel=True)
    q.push(1.1, lambda: None, label="near", wheel=True)
    q.push(5.0, lambda: None, label="mid", wheel=True)
    assert [label for _, label in drain(q)] == ["near", "mid", "far"]
    assert wheel.stored == 0


def test_insert_behind_frontier_falls_back_to_heap():
    wheel = TimerWheel(granularity=0.5, num_slots=4)
    q = EventQueue(wheel=wheel)
    q.push(3.0, lambda: None, label="later", wheel=True)
    assert q.pop_due().label == "later"  # frontier is now past t=3.0
    assert wheel.frontier > 0.2
    q.push(0.1, lambda: None, label="behind", wheel=True)
    assert wheel.stored == 0  # refused by the wheel, heap took it
    assert q.pop_due().label == "behind"


def test_cancelled_wheel_entries_never_reach_the_heap():
    wheel = TimerWheel(granularity=0.5, num_slots=4)
    q = EventQueue(wheel=wheel)
    doomed = q.push(1.0, lambda: None, label="doomed", wheel=True)
    q.push(2.0, lambda: None, label="kept", wheel=True)
    doomed.cancel()
    assert q.pop_due().label == "kept"
    assert wheel.pruned == 1
    assert wheel.flushed == 1


def test_wheel_only_queue_drains_without_heap_events():
    q = EventQueue(wheel=TimerWheel(granularity=0.5, num_slots=4))
    q.push(4.0, lambda: None, label="only", wheel=True)
    assert q.peek_time() == 4.0
    assert q.pop_due().label == "only"
    assert q.pop_due() is None


def test_wheel_rejects_bad_geometry():
    with pytest.raises(ValueError):
        TimerWheel(granularity=0.0)
    with pytest.raises(ValueError):
        TimerWheel(num_slots=1)


def test_prune_drops_corpses_in_near_and_far_buckets():
    wheel = TimerWheel(granularity=0.5, num_slots=4)
    q = EventQueue(wheel=wheel)
    near = q.push(1.0, lambda: None, wheel=True)
    far = q.push(50.0, lambda: None, wheel=True)
    keep = q.push(51.0, lambda: None, label="keep", wheel=True)
    near.cancel()
    far.cancel()
    wheel.prune()
    assert wheel.stored == 1
    assert [label for _, label in drain(q)] == ["keep"]
    assert keep.cancelled is False


@pytest.mark.parametrize("seed", range(8))
def test_randomised_schedule_matches_plain_heap(monkeypatch, seed):
    """Property: wheel-backed pop order == heap-only pop order (the
    reference queue's wheel refuses every entry).

    Random times (with deliberate ties), priorities, wheel/heap mix,
    cancels of not-yet-fired events, and inserts performed mid-drain so
    some land behind the frontier.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(300):
        ops.append(
            (
                rng.choice([0.0, 0.25, 0.5, rng.uniform(0, 30), rng.uniform(0, 300)]),
                rng.choice([-10, 0, 0, 0, 10]),
                rng.random() < 0.5,  # wheel flag
                rng.random() < 0.25,  # cancel later
                f"op{i}",
            )
        )

    def execute(queue, rng):
        handles = []
        for time, priority, use_wheel, _cancel, label in ops[:200]:
            handles.append(
                queue.push(
                    time, lambda: None, priority=priority, label=label,
                    wheel=use_wheel,
                )
            )
        for handle, (_, _, _, cancel, _) in zip(handles, ops[:200]):
            if cancel:
                handle.cancel()
        # drain halfway, then schedule the rest relative to "now" so some
        # wheel inserts land behind the frontier and fall back to the heap
        popped = []
        for _ in range(60):
            event = queue.pop_due()
            if event is None:
                break
            popped.append((event.time, event.priority, event.label))
        now = popped[-1][0] if popped else 0.0
        for time, priority, use_wheel, _cancel, label in ops[200:]:
            queue.push(
                now + time, lambda: None, priority=priority,
                label=label + "-late", wheel=use_wheel,
            )
        while (event := queue.pop_due()) is not None:
            popped.append((event.time, event.priority, event.label))
        return popped

    with monkeypatch.context() as patch:
        patch.setattr(TimerWheel, "insert", refuse_wheel_insert)
        plain = execute(EventQueue(), random.Random(seed + 1))
    wheeled = execute(
        EventQueue(wheel=TimerWheel(granularity=0.5, num_slots=8)),
        random.Random(seed + 1),
    )
    assert wheeled == plain


def test_timer_restart_storm_stays_bounded():
    """A timer restarted thousands of times must not grow the queue.

    This is the wheel + compaction payoff: every restart cancels the
    previous event, and corpses are either pruned in their bucket or
    compacted away, so storage stays O(live events).
    """
    sim = Simulator()
    timer = Timer(sim, 5.0, lambda: None)
    for _ in range(5000):
        timer.start()
    assert sim.queue.stored < 100
    assert sim.queue.wheel.pruned + sim.queue.compactions > 0
    sim.run()
    assert timer.fired == 1
