"""BlackDP: lightweight detection and isolation of black hole attacks in
connected vehicles.

A from-scratch reproduction of Albouq & Fredericks, ICDCS 2017.  The
package layers, bottom up:

- :mod:`repro.sim` — deterministic discrete-event engine.
- :mod:`repro.net` — unit-disk radio, nodes, backbone, wire codec,
  secure neighbour discovery.
- :mod:`repro.crypto` — simulated IEEE 1609.2-style PKI.
- :mod:`repro.mobility` — highway and urban mobility.
- :mod:`repro.routing` — AODV.
- :mod:`repro.clusters` / :mod:`repro.vehicles` — RSU cluster heads and
  vehicle nodes.
- :mod:`repro.attacks` — black/gray hole attackers and evasion policies.
- :mod:`repro.core` — the BlackDP protocol (the paper's contribution).
- :mod:`repro.baselines` / :mod:`repro.metrics` /
  :mod:`repro.experiments` — comparison methods, measurement, and the
  harness regenerating every table and figure.

Quick start::

    from repro.experiments.world import build_world

    world = build_world(seed=2)
    source = world.add_vehicle("source", x=100.0)
    world.add_attacker("blackhole", x=900.0)
    destination = world.add_vehicle("destination", x=2500.0)
    world.sim.run(until=0.5)
    world.verifiers["source"].establish_route(destination.address, print)
    world.sim.run(until=60.0)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
