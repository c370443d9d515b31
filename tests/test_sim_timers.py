"""Unit tests for one-shot and periodic timers."""

import pytest

from repro.sim import PeriodicTimer, Simulator, Timer


def test_timer_fires_once_after_delay():
    sim = Simulator()
    hits = []
    t = Timer(sim, 3.0, lambda: hits.append(sim.now))
    t.start()
    sim.run()
    assert hits == [3.0]
    assert t.fired == 1
    assert not t.running


def test_timer_cancel_prevents_fire():
    sim = Simulator()
    hits = []
    t = Timer(sim, 3.0, lambda: hits.append(sim.now))
    t.start()
    t.cancel()
    sim.run()
    assert hits == []


def test_timer_restart_resets_deadline():
    sim = Simulator()
    hits = []
    t = Timer(sim, 3.0, lambda: hits.append(sim.now))
    t.start()
    sim.run(until=2.0)
    t.start()  # restart at t=2 -> fires at t=5
    sim.run()
    assert hits == [5.0]


def test_timer_start_with_override_delay():
    sim = Simulator()
    hits = []
    t = Timer(sim, 3.0, lambda: hits.append(sim.now))
    t.start(delay=1.0)
    sim.run()
    assert hits == [1.0]


def test_timer_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        Timer(sim, -1.0, lambda: None)


def test_periodic_timer_fires_on_interval():
    sim = Simulator()
    hits = []
    p = PeriodicTimer(sim, 2.0, lambda: hits.append(sim.now))
    p.start()
    sim.run(until=7.0)
    p.cancel()
    assert hits == [2.0, 4.0, 6.0]


def test_periodic_timer_first_delay_offsets_phase():
    sim = Simulator()
    hits = []
    p = PeriodicTimer(sim, 2.0, lambda: hits.append(sim.now), first_delay=0.5)
    p.start()
    sim.run(until=5.0)
    p.cancel()
    assert hits == [0.5, 2.5, 4.5]


def test_periodic_timer_cancel_stops_firings():
    sim = Simulator()
    hits = []
    p = PeriodicTimer(sim, 1.0, lambda: hits.append(sim.now))
    p.start()
    sim.run(until=2.5)
    p.cancel()
    sim.run(until=10.0)
    assert hits == [1.0, 2.0]


def test_periodic_timer_rejects_non_positive_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTimer(sim, 0.0, lambda: None)


def test_timer_restart_while_pending_fires_once_at_new_deadline():
    sim = Simulator()
    hits = []
    t = Timer(sim, 3.0, lambda: hits.append(sim.now))
    t.start()
    t.start()  # immediately restarted while the first event is pending
    t.start()
    assert t.running
    sim.run()
    assert hits == [3.0]  # exactly one firing, from the last start
    assert t.fired == 1


def test_timer_cancel_then_start_rearms_cleanly():
    sim = Simulator()
    hits = []
    t = Timer(sim, 3.0, lambda: hits.append(sim.now))
    t.start()
    t.cancel()
    assert not t.running
    sim.run(until=1.0)
    t.start()  # re-arm after a cancel: fires at 1 + 3
    sim.run()
    assert hits == [4.0]
    assert t.fired == 1


def test_timer_restarted_from_its_own_action():
    sim = Simulator()
    hits = []

    def fire():
        hits.append(sim.now)
        if len(hits) < 3:
            t.start()

    t = Timer(sim, 2.0, fire)
    t.start()
    sim.run()
    assert hits == [2.0, 4.0, 6.0]


def test_periodic_timer_same_tick_restart_resets_phase_without_drift():
    sim = Simulator()
    hits = []
    p = PeriodicTimer(sim, 2.0, lambda: hits.append(sim.now))
    p.start()
    p.start()  # same-tick restart: one chain, phase anchored at t=0
    p.start()
    sim.run(until=6.0)
    p.cancel()
    assert hits == [2.0, 4.0, 6.0]  # no duplicated or phase-shifted firings


def test_periodic_timer_restart_from_action_keeps_single_chain():
    sim = Simulator()
    hits = []

    def fire():
        hits.append(sim.now)
        p.start()  # restart inside the callback, same tick as the firing

    p = PeriodicTimer(sim, 2.0, fire)
    p.start()
    sim.run(until=7.0)
    p.cancel()
    # each firing re-anchors the phase at its own tick: still every 2 s,
    # and crucially only one chain (no double firings)
    assert hits == [2.0, 4.0, 6.0]


def test_timer_fires_exactly_at_run_until_boundary():
    sim = Simulator()
    hits = []
    t = Timer(sim, 5.0, lambda: hits.append(sim.now))
    t.start()
    sim.run(until=5.0)  # until is inclusive: the event is due, it fires
    assert hits == [5.0]
    assert sim.now == 5.0


def test_periodic_firing_at_until_boundary_reschedules_but_stops():
    sim = Simulator()
    hits = []
    p = PeriodicTimer(sim, 2.0, lambda: hits.append(sim.now))
    p.start()
    sim.run(until=4.0)
    assert hits == [2.0, 4.0]  # boundary firing included
    assert p.running  # the next occurrence (t=6) is armed but not run
    sim.run(until=4.0)
    assert hits == [2.0, 4.0]  # re-running to the same boundary is a no-op
