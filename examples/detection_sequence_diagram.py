#!/usr/bin/env python
"""Generate the detection message ladder from a live run.

Tracing the transmissions of a cross-cluster cooperative detection and
rendering the BlackDP packets as an ASCII sequence diagram — the
docs/protocol-walkthrough.md ladder, produced by the simulator itself.

Run:  python examples/detection_sequence_diagram.py
"""

from repro.experiments.world import build_world
from repro.obs import TraceFilter, render_sequence

BLACKDP_KINDS = {
    "DetectionRequest",
    "DetectionForward",
    "DetectionResult",
    "RouteRequest",
    "RouteReply",
    "RevocationNoticePacket",
    "MemberWarning",
}


def main():
    world = build_world(seed=9)
    trace = world.sim.obs.enable_trace(
        trace_filter=TraceFilter(
            kinds={"net.send", "net.backbone_send"},
            predicate=lambda event: event.packet_kind in BLACKDP_KINDS,
        )
    )
    source = world.add_vehicle("source", x=1500.0)  # cluster 2
    b1, b2 = world.add_cooperative_pair(2600.0, 2900.0)  # cluster 3
    destination = world.add_vehicle("destination", x=6400.0)
    world.sim.run(until=0.5)

    outcomes = []
    world.verifiers["source"].establish_route(destination.address, outcomes.append)
    world.sim.run(until=world.sim.now + 40.0)
    record = world.all_records()[0]
    print(f"verdict: {record.verdict}, packets: {record.packets}, "
          f"breakdown: {' -> '.join(record.breakdown)}\n")

    # Participants: the reporter, both cluster heads, both attackers.
    # The CH probes under a disposable alias, so include it too.
    alias_events = [
        e for e in trace.events
        if e.src.startswith("pid-dis-") or e.dst.startswith("pid-dis-")
    ]
    alias = next(
        (e.src for e in alias_events if e.src.startswith("pid-dis-")),
        "pid-dis-?",
    )
    participants = [source.address, "rsu-2", "rsu-3", alias, b1.address, b2.address]
    labels = {
        source.address: "source",
        alias: "alias(CH3)",
        b1.address: "B1",
        b2.address: "B2",
    }
    detection = [
        e for e in trace.events
        if e.packet_kind != "RouteRequest" or e.src == alias or e.dst == alias
    ]
    print(render_sequence(detection, participants, labels=labels))


if __name__ == "__main__":
    main()
