"""Structured event tracing with JSONL export and causality views.

The :class:`TraceCollector` keeps *typed* records: every emit names the node
that acted, an event kind (``net.send``, ``aodv.rrep_tx``,
``exam.verdict``…), and — when a packet was involved — the packet's
kind, uid and endpoints.  A ``cause`` tag links derived events back to
what triggered them (``uid:123`` for a forwarded copy of packet 123,
``rreq:7`` for a reply to request id 7, ``suspect:<pid>`` for a
detection case), which is what lets :meth:`TraceCollector.follow`
reconstruct a packet's path and an examination's probe→verdict sequence
after the fact.  :func:`render_sequence` draws a trace's transmissions
as an ASCII sequence diagram.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.packets import Packet
    from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Attributes
    ----------
    time:
        Virtual time the event was emitted.
    node:
        Stable id of the node that acted (``node_id``, not pseudonym).
    kind:
        Dotted event kind, namespaced by layer (``net.*``, ``aodv.*``,
        ``verify.*``, ``exam.*``).
    packet_kind / packet_uid / src / dst:
        The involved packet, when there is one (uid 0 means none).
    cause:
        Causality tag linking to the triggering packet/case
        (``uid:<n>``, ``rreq:<id>``, ``suspect:<pseudonym>`` or empty).
    detail:
        Free-form qualifier (drop cause, verdict, reason).
    """

    time: float
    node: str
    kind: str
    packet_kind: str = ""
    packet_uid: int = 0
    src: str = ""
    dst: str = ""
    cause: str = ""
    detail: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        return cls(**json.loads(line))


#: The record kinds :mod:`repro.net` emits, one per medium call site.
NET_KINDS = (
    "net.send",
    "net.deliver",
    "net.drop",
    "net.backbone_send",
    "net.backbone_deliver",
)


@dataclass
class TraceFilter:
    """Optional admission rules for a collector.

    A kind is admitted when it is listed in ``kinds`` or starts with one
    of ``kind_prefixes``; with neither set, every kind is.  ``nodes`` and
    ``predicate`` then narrow by acting node and by whole record.
    """

    kinds: set[str] | None = None
    kind_prefixes: tuple[str, ...] = ()
    nodes: set[str] | None = None
    predicate: Callable[[TraceEvent], bool] | None = None

    def __post_init__(self) -> None:
        self.kind_prefixes = tuple(self.kind_prefixes)

    def admits_kind(self, kind: str) -> bool:
        if self.kinds is not None and kind in self.kinds:
            return True
        if self.kind_prefixes:
            return kind.startswith(self.kind_prefixes)
        return self.kinds is None

    def admits(self, event: TraceEvent) -> bool:
        if not self.admits_kind(event.kind):
            return False
        if self.nodes is not None and event.node not in self.nodes:
            return False
        if self.predicate is not None and not self.predicate(event):
            return False
        return True


class TraceCollector:
    """Collects :class:`TraceEvent` records stamped with virtual time.

    Storage is bounded: past ``capacity`` events, new emits are counted
    (``dropped``) but not stored, so a runaway trace cannot exhaust
    memory.  Emission order is chronological by construction (the
    simulator clock is monotonic), which JSONL export preserves.
    """

    def __init__(
        self,
        simulator: "Simulator",
        *,
        capacity: int = 200_000,
        trace_filter: TraceFilter | None = None,
    ) -> None:
        self._simulator = simulator
        self.capacity = capacity
        self.filter = trace_filter
        self.events: list[TraceEvent] = []
        self.dropped = 0
        #: whether any :data:`NET_KINDS` record can be admitted; the
        #: medium skips its per-packet emits (and keeps its obs-dark
        #: fast path) when not
        self.records_net = trace_filter is None or any(
            map(trace_filter.admits_kind, NET_KINDS)
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        node: str,
        kind: str,
        packet: "Packet | None" = None,
        *,
        cause: str = "",
        detail: str = "",
    ) -> None:
        """Record one event; the packet's identity fields are captured
        by value so later mutation/reuse cannot corrupt the trace.  A
        kind the filter does not admit is rejected before any record is
        built."""
        trace_filter = self.filter
        if trace_filter is not None and not trace_filter.admits_kind(kind):
            return
        event = TraceEvent(
            time=self._simulator.now,
            node=node,
            kind=kind,
            packet_kind=packet.kind if packet is not None else "",
            packet_uid=packet.uid if packet is not None else 0,
            src=packet.src if packet is not None else "",
            dst=packet.dst if packet is not None else "",
            cause=cause,
            detail=detail,
        )
        if trace_filter is not None and not trace_filter.admits(event):
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    # Offline views
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "TraceCollector":
        """Build a query-only view over an existing event list (e.g. one
        re-imported from JSONL); emitting into it raises."""
        view = cls.__new__(cls)
        view._simulator = None
        view.events = list(events)
        view.capacity = len(view.events)
        view.filter = None
        view.dropped = 0
        view.records_net = True
        return view

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(
        self,
        *,
        kind: str | None = None,
        kind_prefix: str | None = None,
        node: str | None = None,
        packet_uid: int | None = None,
        cause: str | None = None,
    ) -> list[TraceEvent]:
        """Events matching every given criterion, in time order."""
        out = []
        for event in self.events:
            if kind is not None and event.kind != kind:
                continue
            if kind_prefix is not None and not event.kind.startswith(kind_prefix):
                continue
            if node is not None and event.node != node:
                continue
            if packet_uid is not None and event.packet_uid != packet_uid:
                continue
            if cause is not None and event.cause != cause:
                continue
            out.append(event)
        return out

    def follow(self, uid: int, *, max_depth: int = 32) -> list[TraceEvent]:
        """The causality view: a packet's path through the network.

        Starts from every event referencing ``uid`` and transitively
        includes events caused by packets in the closure (forwarded
        copies carry ``cause="uid:<parent>"``).  Returns a chronological
        list, so a flooded RREQ's rebroadcasts and the RREPs it provoked
        read as one story.
        """
        frontier = {uid}
        seen_uids: set[int] = set()
        for _ in range(max_depth):
            if not frontier:
                break
            seen_uids |= frontier
            causes = {f"uid:{u}" for u in frontier}
            frontier = {
                e.packet_uid
                for e in self.events
                if e.cause in causes and e.packet_uid and e.packet_uid not in seen_uids
            }
        chain = [
            e
            for e in self.events
            if e.packet_uid in seen_uids
            or (e.cause.startswith("uid:") and int(e.cause[4:]) in seen_uids)
        ]
        chain.sort(key=lambda e: e.time)
        return chain

    def case_events(self, suspect: str) -> list[TraceEvent]:
        """Every event tagged to one detection case (probe→verdict)."""
        return self.select(cause=f"suspect:{suspect}")

    # ------------------------------------------------------------------
    # JSONL I/O
    # ------------------------------------------------------------------
    def dumps_jsonl(self) -> str:
        return "\n".join(event.to_json() for event in self.events)

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the trace as one JSON object per line; returns the path."""
        target = Path(path)
        target.write_text(self.dumps_jsonl() + ("\n" if self.events else ""))
        return target

    @staticmethod
    def read_jsonl(source: str | Path | Iterable[str]) -> list[TraceEvent]:
        """Parse a JSONL trace back into :class:`TraceEvent` records."""
        if isinstance(source, (str, Path)):
            lines: Iterable[str] = Path(source).read_text().splitlines()
        else:
            lines = source
        return [TraceEvent.from_json(line) for line in lines if line.strip()]

    def __len__(self) -> int:
        return len(self.events)


# ----------------------------------------------------------------------
# Sequence diagrams
# ----------------------------------------------------------------------
#: default short names so labels fit inside one-column arrow spans
KIND_ABBREVIATIONS = {
    "DetectionRequest": "d_req",
    "DetectionForward": "fwd",
    "DetectionResult": "result",
    "RouteRequest": "RREQ",
    "RouteReply": "RREP",
    "RevocationNoticePacket": "revoke",
    "MemberWarning": "warn",
    "SecureHello": "hello",
    "HelloReply": "hello-re",
    "JoinRequest": "JREQ",
    "JoinReply": "JREP",
    "LeaveNotice": "leave",
}

#: transmission record kinds and their arrow strokes
_STROKES = {"net.send": "-", "net.backbone_send": "="}


def render_sequence(
    events: Iterable[TraceEvent],
    participants: list[str],
    *,
    labels: dict[str, str] | None = None,
    kind_labels: dict[str, str] | None = None,
    column_width: int = 16,
) -> str:
    """Draw transmissions between ``participants`` as an ASCII ladder.

    Reads the ``net.send`` (radio, drawn ``--->``) and
    ``net.backbone_send`` (wired, drawn ``===>``) records of a trace and
    skips every other kind, so a whole trace can be passed in; each
    arrow is labelled with its ``packet_kind``::

        t(s)        v1            rsu-1          rsu-2            bh
        0.512    DetectionRequest--->|              |              |
        0.514       |              forward=========>|              |

    Records with endpoints outside ``participants`` are skipped;
    broadcasts are drawn as one ``*``-suffixed arrow to the right margin
    (to the left one when the sender is the last column).  ``labels``
    maps raw addresses to display names (pseudonyms are unwieldy).
    """
    if not participants:
        raise ValueError("need at least one participant")
    labels = labels or {}
    kind_labels = {**KIND_ABBREVIATIONS, **(kind_labels or {})}
    index_of = {address: i for i, address in enumerate(participants)}
    width = column_width
    header = "t(s)".ljust(9) + "".join(
        labels.get(address, address)[: width - 2].center(width)
        for address in participants
    )
    lines = [header]
    idle = "".join("|".center(width) for _ in participants)
    for event in events:
        stroke = _STROKES.get(event.kind)
        if stroke is None or event.src not in index_of:
            continue
        src_index = index_of[event.src]
        if event.dst == "*":
            dst_index = len(participants) - 1
            if dst_index == src_index:
                dst_index = 0
        elif event.dst in index_of:
            dst_index = index_of[event.dst]
        else:
            continue
        if src_index == dst_index:
            continue
        row = list(idle)
        lo, hi = sorted((src_index, dst_index))
        start = lo * width + width // 2
        end = hi * width + width // 2
        for position in range(start + 1, end):
            row[position] = stroke
        if dst_index > src_index:
            row[end - 1] = ">"
        else:
            row[start + 1] = "<"
        short = kind_labels.get(event.packet_kind, event.packet_kind)
        label = short if event.dst != "*" else f"{short}*"
        span = end - start - 1
        if len(label) < span:
            offset = start + 1 + (span - len(label)) // 2
            row[offset : offset + len(label)] = label
        lines.append(f"{event.time:8.3f} " + "".join(row))
    return "\n".join(lines)
