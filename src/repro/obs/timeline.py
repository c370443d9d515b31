"""Per-suspect detection timelines reconstructed from the trace.

The paper's claims are about *speed*: how long after a black hole first
draws suspicion does the protocol convict it, and how long until the
fleet has actually stopped trusting it.  The
:class:`~repro.obs.trace.TraceCollector` already records every step of a
detection case under one ``suspect:<pseudonym>`` cause tag; this module
folds that event sequence into a :class:`DetectionTimeline` — first
suspicion → report → examination → probes → verdict → revocation →
propagation — and aggregates the delays across suspects into
time-to-detection / time-to-isolation statistics for
:class:`~repro.experiments.trial.TrialResult` and the report.

Timestamp semantics (all virtual seconds):

- ``first_suspicion``: the earliest suspect-tagged event (normally the
  source's ``verify.hello_tx`` direct-hello probe).
- ``verdict_at``: the examining RSU's ``exam.verdict``; *detection*.
- ``isolated_at``: the last revocation-propagation event — the final
  ``exam.revoke``/``exam.revoke_rx`` (CH-side CRL adoption) or
  ``verify.blacklist`` (vehicle-side blacklist) — i.e. when the verdict
  has finished spreading; *isolation*.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable

from repro.obs.trace import TraceEvent

#: Kind prefixes of every record :func:`reconstruct_timelines` reads:
#: each suspect-tagged emit is a ``verify.*`` (vehicle side) or
#: ``exam.*`` (examining RSU) kind, so a trace capturing only these
#: reconstructs the same timelines as a full capture.
DETECTION_KINDS = ("verify.", "exam.")

#: Trace kinds that mark the verdict having reached another party.
PROPAGATION_KINDS = ("exam.revoke", "exam.revoke_rx", "verify.blacklist")

#: Verdicts that isolate their suspect: the probe protocol's
#: ``black-hole``, the watchdog's ``gray-hole``, the aggregate monitor's
#: ``rreq-flood``, and the pluggable arena detectors' ``arena-flagged``.
CONVICTING_VERDICTS = frozenset(
    {"black-hole", "gray-hole", "rreq-flood", "arena-flagged"}
)


@dataclass(frozen=True)
class DetectionTimeline:
    """The reconstructed story of one detection case."""

    suspect: str
    #: node that first acted on the suspicion (normally the source)
    reporter: str = ""
    first_suspicion: float | None = None
    reported_at: float | None = None
    exam_started_at: float | None = None
    first_probe_at: float | None = None
    probes: int = 0
    verdict: str = ""
    verdict_at: float | None = None
    revoked_at: float | None = None
    isolated_at: float | None = None
    #: nodes that adopted the revocation/blacklist, in adoption order
    propagated_to: tuple[str, ...] = field(default_factory=tuple)
    events: int = 0

    @property
    def convicted(self) -> bool:
        return self.verdict in CONVICTING_VERDICTS

    @property
    def time_to_detection(self) -> float | None:
        """First suspicion → verdict (the paper's detection delay)."""
        if self.first_suspicion is None or self.verdict_at is None:
            return None
        return self.verdict_at - self.first_suspicion

    @property
    def time_to_isolation(self) -> float | None:
        """First suspicion → last revocation-propagation event."""
        if self.first_suspicion is None or self.isolated_at is None:
            return None
        return self.isolated_at - self.first_suspicion

    def to_dict(self) -> dict:
        out = asdict(self)
        out["propagated_to"] = list(self.propagated_to)
        out["time_to_detection"] = self.time_to_detection
        out["time_to_isolation"] = self.time_to_isolation
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def reconstruct_timelines(
    events: Iterable[TraceEvent],
) -> list[DetectionTimeline]:
    """Fold suspect-tagged trace events into one timeline per suspect.

    Suspects appear in order of first suspicion.  Events must be in
    chronological order, which every :class:`TraceCollector` guarantees
    by construction.
    """
    by_suspect: dict[str, dict] = {}
    for event in events:
        if not event.cause.startswith("suspect:"):
            continue
        suspect = event.cause[len("suspect:"):]
        state = by_suspect.get(suspect)
        if state is None:
            state = by_suspect[suspect] = {
                "suspect": suspect,
                "first_suspicion": event.time,
                "reporter": event.node,
                "probes": 0,
                "propagated": [],
                "events": 0,
            }
        state["events"] += 1
        kind = event.kind
        if kind == "verify.report" and "reported_at" not in state:
            state["reported_at"] = event.time
            state["reporter"] = event.node
        elif kind == "exam.start" and "exam_started_at" not in state:
            state["exam_started_at"] = event.time
        elif kind == "exam.probe_tx":
            state["probes"] += 1
            state.setdefault("first_probe_at", event.time)
        elif kind == "exam.verdict" and "verdict_at" not in state:
            state["verdict_at"] = event.time
            state["verdict"] = event.detail
        elif kind in PROPAGATION_KINDS:
            if kind in ("exam.revoke",):
                state.setdefault("revoked_at", event.time)
            state["isolated_at"] = event.time
            if event.node not in state["propagated"]:
                state["propagated"].append(event.node)
    return [
        DetectionTimeline(
            suspect=state["suspect"],
            reporter=state["reporter"],
            first_suspicion=state["first_suspicion"],
            reported_at=state.get("reported_at"),
            exam_started_at=state.get("exam_started_at"),
            first_probe_at=state.get("first_probe_at"),
            probes=state["probes"],
            verdict=state.get("verdict", ""),
            verdict_at=state.get("verdict_at"),
            revoked_at=state.get("revoked_at"),
            isolated_at=state.get("isolated_at"),
            propagated_to=tuple(state["propagated"]),
            events=state["events"],
        )
        for state in by_suspect.values()
    ]


@dataclass(frozen=True)
class TimelineStats:
    """Aggregate delay statistics over a set of timelines."""

    cases: int
    convictions: int
    detection_delays: tuple[float, ...]
    isolation_delays: tuple[float, ...]

    @staticmethod
    def _summary(values: tuple[float, ...]) -> dict[str, float]:
        if not values:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0}
        ordered = sorted(values)
        return {
            "count": len(ordered),
            "mean": sum(ordered) / len(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": ordered[min(len(ordered) - 1, len(ordered) // 2)],
        }

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "convictions": self.convictions,
            "time_to_detection": self._summary(self.detection_delays),
            "time_to_isolation": self._summary(self.isolation_delays),
        }


def timeline_stats(timelines: Iterable[DetectionTimeline]) -> TimelineStats:
    """Delay histogram inputs over every *convicted* case."""
    timelines = list(timelines)
    detection = tuple(
        t.time_to_detection
        for t in timelines
        if t.convicted and t.time_to_detection is not None
    )
    isolation = tuple(
        t.time_to_isolation
        for t in timelines
        if t.convicted and t.time_to_isolation is not None
    )
    return TimelineStats(
        cases=len(timelines),
        convictions=sum(1 for t in timelines if t.convicted),
        detection_delays=detection,
        isolation_delays=isolation,
    )


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def format_timeline(timeline: DetectionTimeline) -> str:
    """One case as an indented narrative block."""
    lines = [
        f"suspect {timeline.suspect} "
        f"({timeline.verdict or 'no verdict'}, {timeline.events} events)"
    ]
    steps = [
        ("first suspicion", timeline.first_suspicion),
        ("reported", timeline.reported_at),
        ("exam started", timeline.exam_started_at),
        (f"first probe (of {timeline.probes})", timeline.first_probe_at),
        ("verdict", timeline.verdict_at),
        ("revoked", timeline.revoked_at),
        (f"isolated ({len(timeline.propagated_to)} nodes)", timeline.isolated_at),
    ]
    for label, at in steps:
        if at is not None:
            lines.append(f"  t={at:8.3f}  {label}")
    lines.append(
        f"  time-to-detection {_fmt(timeline.time_to_detection)}s, "
        f"time-to-isolation {_fmt(timeline.time_to_isolation)}s"
    )
    return "\n".join(lines)


def format_timelines(timelines: Iterable[DetectionTimeline]) -> str:
    """Every case plus the aggregate delay summary."""
    timelines = list(timelines)
    if not timelines:
        return "no detection cases in trace"
    blocks = [format_timeline(t) for t in timelines]
    stats = timeline_stats(timelines).to_dict()
    ttd, tti = stats["time_to_detection"], stats["time_to_isolation"]
    blocks.append(
        f"{stats['cases']} cases, {stats['convictions']} convictions; "
        f"detection mean {ttd['mean']:.3f}s (min {ttd['min']:.3f} / "
        f"max {ttd['max']:.3f}), isolation mean {tti['mean']:.3f}s "
        f"(min {tti['min']:.3f} / max {tti['max']:.3f})"
    )
    return "\n\n".join(blocks)
