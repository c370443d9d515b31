"""Discrete-event simulation engine underlying the BlackDP reproduction.

The paper evaluates BlackDP in a custom connected-vehicle simulation; this
package provides the equivalent substrate: a deterministic event-driven
simulator with a monotonic virtual clock, seeded random-number streams and
timers.  Records of what happened go through :mod:`repro.obs`.

Public API
----------
- :class:`~repro.sim.simulator.Simulator` -- the event loop and clock.
- :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventQueue`
  -- the priority queue the loop drains.
- :class:`~repro.sim.rng.RandomStreams` -- named, independently seeded
  random streams (mobility, traffic, attacker, ...).
- :class:`~repro.sim.timers.Timer` / :class:`~repro.sim.timers.PeriodicTimer`
  -- cancellable one-shot and repeating timers.
- :class:`~repro.sim.wheel.TimerWheel` -- hierarchical buckets for
  timer-class events (O(1) restart/cancel).
"""

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator, SimulationError
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.wheel import TimerWheel

__all__ = [
    "Event",
    "EventQueue",
    "PeriodicTimer",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timer",
    "TimerWheel",
]
