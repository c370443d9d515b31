"""The AODV protocol engine.

One :class:`AodvProtocol` instance attaches to one :class:`~repro.net.node.Node`
and implements route discovery, reply generation/forwarding, data
forwarding, Hello-based neighbour tracking and RERR propagation.

Two design points matter for the reproduction:

- **Reply collection.** The paper's source node "will store both RREP
  packets in its routing cache" and then picks the freshest.  Discovery
  therefore keeps a full collection window open (``discovery_timeout``)
  and returns *every* reply received, not just the first — BlackDP's
  verifier and the sequence-number baselines both need the full set.
- **Malicious subclassing.** Black hole behaviour is implemented by
  overriding the small, well-named hooks ``_answer_rreq`` (how to react
  to a route request) and ``_accept_data`` (whether to forward data), so
  the attacker code in :mod:`repro.attacks` stays minimal and the honest
  code path stays uncontaminated by attack logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.net.network import BROADCAST
from repro.net.node import Node
from repro.routing.packets import (
    UNKNOWN_SEQ,
    DataPacket,
    HelloBeacon,
    RouteError,
    RouteReply,
    RouteRequest,
)
from repro.routing.table import RouteEntry, RoutingTable
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.certificates import Certificate
    from repro.crypto.keys import PrivateKey

#: Provides the node's credential for secure replies, or None for plain AODV.
IdentityProvider = Callable[[], "tuple[Certificate, PrivateKey] | None"]

#: The out-of-window id set every :class:`_SeenIds` starts with, until
#: :meth:`AodvProtocol._remember_rreq` gives a window a real ``set``.  A
#: Figure 4 or arena trial opens about 114 windows (13,513 over the 120
#: ``fig4_slice`` trials, about one per node), none of which ever holds
#: an out-of-order id; an empty ``set`` per window instead read
#: ``fig4_slice`` ``peak_rss_mb`` 0.22 MB higher in every run.
_NO_IDS: frozenset[int] = frozenset()


class _SeenIds:
    """The RREQ ids one node has accepted from one originator.

    Every id in ``[low, high)`` has been seen; ``extra`` holds the seen
    ids outside that range.  RFC 3561 §6.3 increments an originator's
    RREQ ID by one per flood, so in-order arrivals only move ``high`` and
    a window stays three slots however long the run.  Out-of-order ids
    land in ``extra`` and are absorbed once ``high`` reaches them, so
    membership is exact for any arrival order.
    """

    __slots__ = ("low", "high", "extra")

    def __init__(self, rreq_id: int) -> None:
        self.low = rreq_id
        self.high = rreq_id + 1
        self.extra: set[int] | frozenset[int] = _NO_IDS


@dataclass
class AodvConfig:
    """Protocol timing and limits.

    Attributes
    ----------
    route_lifetime:
        Seconds a discovered route stays usable.
    discovery_timeout:
        RREP collection window per discovery attempt.
    discovery_retries:
        Extra RREQ floods after an empty first window.
    max_hops:
        Flood TTL; RREQs stop rebroadcasting past this hop count.
    hello_interval / allowed_hello_loss / enable_hello:
        Route-maintenance beaconing (off by default; most experiments
        exercise discovery, and beacons add O(nodes) events per second).
    intermediate_replies:
        Whether this node answers RREQs from its route cache.  True for
        vehicles (standard AODV); set False on trusted infrastructure so
        an RSU never vouches for a cached route it cannot itself verify
        (a black hole's forwarded fake RREP would otherwise launder its
        poisoned route through the RSU's trusted identity).
    gratuitous_rrep:
        AODV's 'G' flag behaviour: an intermediate that answers a RREQ
        also sends a gratuitous RREP *to the destination*, so the
        destination learns a reverse route to the originator it never
        heard flood.  BlackDP benefits directly — the destination can
        answer verification Hellos arriving over intermediate-supplied
        routes.
    local_repair:
        When forwarding data fails mid-route, attempt an in-place
        re-discovery of the destination (buffering the packet) before
        dropping and reporting RERR.
    """

    route_lifetime: float = 30.0
    discovery_timeout: float = 0.6
    discovery_retries: int = 1
    max_hops: int = 25
    hello_interval: float = 1.0
    allowed_hello_loss: int = 2
    enable_hello: bool = False
    intermediate_replies: bool = True
    gratuitous_rrep: bool = True
    local_repair: bool = False


@dataclass
class DiscoveryResult:
    """What a completed route discovery hands back."""

    destination: str
    route: RouteEntry | None
    replies: list[RouteReply] = field(default_factory=list)
    attempts: int = 1

    @property
    def succeeded(self) -> bool:
        return self.route is not None

    def best_reply(self) -> RouteReply | None:
        """The reply with the highest sequence number (what AODV trusts)."""
        if not self.replies:
            return None
        return max(self.replies, key=lambda r: (r.destination_seq, -r.hop_count))


@dataclass
class _Discovery:
    destination: str
    callback: Callable[[DiscoveryResult], None]
    attempts: int = 0
    replies: list[RouteReply] = field(default_factory=list)
    timer_event: object = None


def _discard_result(result: DiscoveryResult) -> None:
    """No-op discovery callback (local repair relies on the flush hook).

    Module-level so pending repair discoveries stay picklable in world
    snapshots.
    """


@dataclass
class AodvStats:
    """Per-node protocol counters used by metrics and benchmarks."""

    rreq_originated: int = 0
    rreq_rebroadcast: int = 0
    rrep_generated: int = 0
    rrep_forwarded: int = 0
    gratuitous_rreps: int = 0
    rerr_sent: int = 0
    data_originated: int = 0
    data_forwarded: int = 0
    data_delivered: int = 0
    data_dropped_no_route: int = 0
    local_repairs_started: int = 0
    local_repairs_succeeded: int = 0


class AodvProtocol:
    """AODV bound to one node.

    Parameters
    ----------
    node:
        The network node to run on; handlers are registered immediately.
    config:
        Timing/limits; defaults suit the Table I scenario.
    identity:
        Optional provider of (certificate, private key) used to produce
        *secure* RREPs per the paper's authentication step.

    Duplicate RREQs are suppressed per (originator, RREQ ID), as RFC 3561
    §6.5 requires.  The node keeps one :class:`_SeenIds` window per
    originator rather than one key per flood, so its memory grows with
    the number of originators it hears, not with the length of the run.
    """

    def __init__(
        self,
        node: Node,
        config: AodvConfig | None = None,
        *,
        identity: IdentityProvider | None = None,
    ) -> None:
        self.node = node
        #: plain attribute, not a property: the simulator never changes
        #: after attach and the hot handlers read ``self.sim`` constantly
        self.sim = node.sim
        self.config = config or AodvConfig()
        self.identity = identity
        #: optional provider of the node's current cluster index, stamped
        #: into generated RREPs (the paper's "cluster head identity" tag)
        self.cluster_info: Callable[[], int] | None = None
        #: optional predicate over received RREPs; a reply it rejects is
        #: neither installed, forwarded nor delivered to listeners.  The
        #: BlackDP verifier wires the node's blacklist in here so revoked
        #: pseudonyms can no longer poison the routing table.
        self.reply_filter: Callable[[RouteReply], bool] | None = None
        self.table = RoutingTable()
        self.own_seq = 0
        self.stats = AodvStats()
        self._rreq_counter = 0
        #: originator -> the RREQ ids accepted from it (duplicate
        #: suppression; one small window per originator, not one entry
        #: per flood)
        self._seen_rreqs: dict[str, _SeenIds] = {}
        self._discoveries: dict[str, _Discovery] = {}
        self._rrep_listeners: list[Callable[[RouteReply, str], None]] = []
        self._data_sinks: list[Callable[[DataPacket], None]] = []
        self._neighbors_last_heard: dict[str, float] = {}
        self._hello_timer: PeriodicTimer | None = None
        #: destination -> packets buffered while a local repair runs
        self._repair_buffers: dict[str, list[DataPacket]] = {}

        node.register_handler(RouteRequest, self._on_rreq)
        node.register_handler(RouteReply, self._on_rrep)
        node.register_handler(RouteError, self._on_rerr)
        node.register_handler(HelloBeacon, self._on_hello)
        node.register_handler(DataPacket, self._on_data)
        if self.config.enable_hello:
            self.start_hello()

    # ------------------------------------------------------------------
    # Identity / addressing
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return self.node.address

    def _count_route_update(self) -> None:
        """Mirror accepted routing-table installs into the metrics
        registry (route-table churn; only called when metrics could be
        on — callers already hold the install result)."""
        metrics = self.sim.obs.metrics
        if metrics is not None:
            metrics.counter("aodv.route_updates", node=self.node.node_id).inc()

    def add_rrep_listener(self, listener: Callable[[RouteReply, str], None]) -> None:
        """Observe every RREP that terminates at this node (BlackDP hooks)."""
        self._rrep_listeners.append(listener)

    def add_data_sink(self, sink: Callable[[DataPacket], None]) -> None:
        """Observe every data packet delivered to this node."""
        self._data_sinks.append(sink)

    # ------------------------------------------------------------------
    # Route discovery (originator side)
    # ------------------------------------------------------------------
    def discover(
        self,
        destination: str,
        callback: Callable[[DiscoveryResult], None],
    ) -> None:
        """Flood an RREQ for ``destination`` and collect replies.

        ``callback`` fires once, after the collection window (and any
        retries) close, with every reply received and the table's best
        route.  A discovery already in flight for the same destination
        is rejected — callers serialise per destination.
        """
        if destination == self.address:
            raise ValueError("cannot discover a route to self")
        if destination in self._discoveries:
            raise RuntimeError(f"discovery to {destination!r} already running")
        state = _Discovery(destination, callback)
        self._discoveries[destination] = state
        self._flood_rreq(state)

    def _flood_rreq(self, state: _Discovery) -> None:
        state.attempts += 1
        self.own_seq += 1
        self._rreq_counter += 1
        self.stats.rreq_originated += 1
        known = self.table.get(state.destination)
        rreq = RouteRequest(
            src=self.address,
            dst=BROADCAST,
            originator=self.address,
            originator_seq=self.own_seq,
            destination=state.destination,
            destination_seq=known.destination_seq if known else UNKNOWN_SEQ,
            hop_count=0,
            rreq_id=self._rreq_counter,
        )
        address = self.address
        self._remember_rreq(self._seen_rreqs.get(address), address, rreq.rreq_id)
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("aodv.rreq_originated", node=self.node.node_id).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.node.node_id, "aodv.rreq_tx", rreq,
                detail=f"rreq_id={rreq.rreq_id}",
            )
        self.node.send(rreq)
        state.timer_event = self.sim.schedule(
            self.config.discovery_timeout,
            self._discovery_window_closed,
            args=(state,),
            label=f"discovery {state.destination}",
            wheel=True,
        )

    def _discovery_window_closed(self, state: _Discovery) -> None:
        if not state.replies and state.attempts <= self.config.discovery_retries:
            self._flood_rreq(state)
            return
        self._discoveries.pop(state.destination, None)
        # The fired event's args hold the state: drop the pair's cycle.
        state.timer_event = None
        result = DiscoveryResult(
            destination=state.destination,
            route=self.table.lookup(state.destination, self.sim.now),
            replies=list(state.replies),
            attempts=state.attempts,
        )
        state.callback(result)
        self._flush_repair_buffer(result)

    # ------------------------------------------------------------------
    # RREQ handling (intermediate / destination side)
    # ------------------------------------------------------------------
    def _on_rreq(self, packet: RouteRequest, sender: str) -> None:
        """Accept an RREQ once per (originator, RREQ ID), then answer it.

        Flood duplicates are the hottest receive path in the whole
        simulation, so the window test is inlined: no key object is
        built and a duplicate costs one dict probe and two comparisons.
        """
        originator = packet.originator
        rreq_id = packet.rreq_id
        window = self._seen_rreqs.get(originator)
        if window is not None and (
            window.low <= rreq_id < window.high or rreq_id in window.extra
        ):
            return
        self._remember_rreq(window, originator, rreq_id)
        now = self.sim.now
        # Reverse route towards the originator.
        if packet.originator != self.address:
            installed = self.table.consider(
                packet.originator,
                next_hop=sender,
                hop_count=packet.hop_count + 1,
                destination_seq=packet.originator_seq,
                expires_at=now + self.config.route_lifetime,
                now=now,
            )
            if installed:
                self._count_route_update()
        self._answer_rreq(packet, sender)

    def _remember_rreq(
        self, window: _SeenIds | None, originator: str, rreq_id: int
    ) -> None:
        """Mark ``rreq_id`` from ``originator`` seen; ``window`` is the
        originator's current window (None if it has none yet)."""
        if window is None:
            self._seen_rreqs[originator] = _SeenIds(rreq_id)
        elif rreq_id == window.high:
            high = rreq_id + 1
            extra = window.extra  # only a real set ever holds an id
            while high in extra:
                extra.remove(high)
                high += 1
            window.high = high
        elif window.extra:
            window.extra.add(rreq_id)
        else:
            window.extra = {rreq_id}

    def _answer_rreq(self, packet: RouteRequest, sender: str) -> None:
        """Honest AODV reaction to a route request.

        Overridden by black hole attackers; the honest behaviour is:
        reply if we are the destination, reply if we hold a fresh-enough
        route, otherwise rebroadcast.
        """
        now = self.sim.now
        if packet.destination == self.address:
            # Destination reply: sequence number catches up to the request.
            if packet.destination_seq != UNKNOWN_SEQ:
                self.own_seq = max(self.own_seq, packet.destination_seq)
            self.own_seq += 1
            self._send_rrep(
                to=sender,
                originator=packet.originator,
                destination=self.address,
                destination_seq=self.own_seq,
                hop_count=0,
                in_reply_to=packet,
            )
            return
        entry = self.table.lookup(packet.destination, now)
        fresh_enough = entry is not None and (
            packet.destination_seq == UNKNOWN_SEQ
            or entry.destination_seq >= packet.destination_seq
        )
        if entry is not None and fresh_enough and self.config.intermediate_replies:
            # Intermediate reply from our own table.
            self.table.add_precursor(packet.destination, sender)
            self._send_rrep(
                to=sender,
                originator=packet.originator,
                destination=packet.destination,
                destination_seq=entry.destination_seq,
                hop_count=entry.hop_count,
                in_reply_to=packet,
            )
            if self.config.gratuitous_rrep:
                self._send_gratuitous_rrep(packet, entry)
            return
        if packet.hop_count < self.config.max_hops:
            self.stats.rreq_rebroadcast += 1
            rebroadcast = RouteRequest(
                src=self.address,
                dst=BROADCAST,
                originator=packet.originator,
                originator_seq=packet.originator_seq,
                destination=packet.destination,
                destination_seq=packet.destination_seq,
                hop_count=packet.hop_count + 1,
                rreq_id=packet.rreq_id,
                request_next_hop=packet.request_next_hop,
                claim_check=packet.claim_check,
            )
            obs = self.sim.obs
            if obs.metrics is not None:
                obs.metrics.counter(
                    "aodv.rreq_rebroadcast", node=self.node.node_id
                ).inc()
            if obs.trace is not None:
                obs.trace.emit(
                    self.node.node_id, "aodv.rreq_fwd", rebroadcast,
                    cause=f"uid:{packet.uid}",
                )
            self.node.send(rebroadcast)

    def _send_gratuitous_rrep(self, packet: RouteRequest, entry: RouteEntry) -> None:
        """AODV 'G' flag: tell the destination how to reach the
        originator, since the flood stopped at this node."""
        self.stats.gratuitous_rreps += 1
        gratuitous = RouteReply(
            src=self.address,
            dst=entry.next_hop,
            originator=packet.destination,   # recipient of this reply
            destination=packet.originator,   # subject of the route
            destination_seq=packet.originator_seq,
            hop_count=packet.hop_count + 1,
            lifetime=self.config.route_lifetime,
            replied_by=self.address,
        )
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("aodv.gratuitous_rrep", node=self.node.node_id).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.node.node_id, "aodv.rrep_gratuitous", gratuitous,
                cause=f"uid:{packet.uid}",
            )
        self.node.send(gratuitous)

    def _send_rrep(
        self,
        *,
        to: str,
        originator: str,
        destination: str,
        destination_seq: int,
        hop_count: int,
        next_hop_claim: str | None = None,
        in_reply_to: RouteRequest | None = None,
    ) -> None:
        """Generate (and sign, when we have an identity) a fresh RREP.

        ``in_reply_to`` is the triggering RREQ; it only feeds the trace's
        causality tag (``uid:<rreq uid>``) so an RREQ→RREP exchange can
        be reconstructed from the JSONL trace by packet id.
        """
        self.stats.rrep_generated += 1
        rrep = RouteReply(
            src=self.address,
            dst=to,
            originator=originator,
            destination=destination,
            destination_seq=destination_seq,
            hop_count=hop_count,
            lifetime=self.config.route_lifetime,
            replied_by=self.address,
            next_hop_claim=next_hop_claim,
            cluster_of_replier=self.cluster_info() if self.cluster_info else 0,
        )
        self._maybe_sign(rrep)
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("aodv.rrep_generated", node=self.node.node_id).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.node.node_id, "aodv.rrep_tx", rrep,
                cause=f"uid:{in_reply_to.uid}" if in_reply_to is not None else "",
            )
        self.node.send(rrep)

    def _maybe_sign(self, rrep: RouteReply) -> None:
        if self.identity is None:
            return
        credential = self.identity()
        if credential is None:
            return
        from repro.crypto.keys import sign  # local import: avoid cycle at load

        certificate, private_key = credential
        rrep.certificate = certificate
        rrep.signature = sign(private_key, rrep.signed_payload())

    # ------------------------------------------------------------------
    # RREP handling
    # ------------------------------------------------------------------
    def _on_rrep(self, packet: RouteReply, sender: str) -> None:
        if self.reply_filter is not None and not self.reply_filter(packet):
            obs = self.sim.obs
            if obs.metrics is not None:
                obs.metrics.counter("aodv.rrep_filtered", node=self.node.node_id).inc()
            if obs.trace is not None:
                obs.trace.emit(
                    self.node.node_id, "aodv.rrep_filtered", packet,
                    detail=f"replied_by={packet.replied_by}",
                )
            return
        now = self.sim.now
        # Forward route to the destination through whoever handed us this.
        if packet.destination != self.address:
            installed = self.table.consider(
                packet.destination,
                next_hop=sender,
                hop_count=packet.hop_count + 1,
                destination_seq=packet.destination_seq,
                expires_at=now + max(packet.lifetime, self.config.route_lifetime),
                now=now,
            )
            if installed:
                self._count_route_update()
        if packet.originator == self.address:
            state = self._discoveries.get(packet.destination)
            if state is not None:
                state.replies.append(packet)
            obs = self.sim.obs
            if obs.trace is not None:
                obs.trace.emit(
                    self.node.node_id, "aodv.rrep_rx", packet,
                    detail=f"replied_by={packet.replied_by}",
                )
            for listener in self._rrep_listeners:
                listener(packet, sender)
            return
        # Forward towards the originator along the reverse route, within
        # the hop bound the RREQ flood obeys: a reply caught between two
        # stale reverse routes would otherwise ping-pong forever.
        if packet.hop_count >= self.config.max_hops:
            return
        reverse = self.table.lookup(packet.originator, now)
        if reverse is None:
            return
        self.table.add_precursor(packet.destination, reverse.next_hop)
        self.stats.rrep_forwarded += 1
        forwarded = RouteReply(
            src=self.address,
            dst=reverse.next_hop,
            originator=packet.originator,
            destination=packet.destination,
            destination_seq=packet.destination_seq,
            hop_count=packet.hop_count + 1,
            lifetime=packet.lifetime,
            replied_by=packet.replied_by,
            next_hop_claim=packet.next_hop_claim,
            cluster_of_replier=packet.cluster_of_replier,
            certificate=packet.certificate,
            signature=packet.signature,
        )
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("aodv.rrep_forwarded", node=self.node.node_id).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.node.node_id, "aodv.rrep_fwd", forwarded,
                cause=f"uid:{packet.uid}",
            )
        self.node.send(forwarded)

    # ------------------------------------------------------------------
    # Data forwarding
    # ------------------------------------------------------------------
    def send_data(self, destination: str, payload) -> bool:
        """Send application data along the current route.

        Returns False (and counts the drop) when no usable route exists;
        callers usually :meth:`discover` first.
        """
        self.stats.data_originated += 1
        packet = DataPacket(
            src=self.address,
            dst="",  # filled by forwarding
            originator=self.address,
            final_destination=destination,
            payload=payload,
        )
        return self._forward_data(packet)

    def _forward_data(self, packet: DataPacket) -> bool:
        route = self.table.lookup(packet.final_destination, self.sim.now)
        if route is None:
            if self.config.local_repair and packet.originator != self.address:
                self._start_local_repair(packet)
                return True
            self.stats.data_dropped_no_route += 1
            obs = self.sim.obs
            if obs.metrics is not None:
                obs.metrics.counter(
                    "aodv.data_dropped", node=self.node.node_id, cause="no-route"
                ).inc()
            if obs.trace is not None:
                obs.trace.emit(
                    self.node.node_id, "aodv.data_drop", packet, detail="no-route"
                )
            self._report_broken_route(packet.final_destination)
            return False
        hop = DataPacket(
            src=self.address,
            dst=route.next_hop,
            originator=packet.originator,
            final_destination=packet.final_destination,
            payload=packet.payload,
            hops_travelled=packet.hops_travelled + 1,
        )
        self.node.send(hop)
        return True

    def _start_local_repair(self, packet: DataPacket) -> None:
        """Buffer a transit packet and rediscover its destination."""
        destination = packet.final_destination
        self._repair_buffers.setdefault(destination, []).append(packet)
        if destination in self._discoveries:
            return  # someone is already looking; the flush hook delivers
        self.stats.local_repairs_started += 1
        self.discover(destination, _discard_result)

    def _flush_repair_buffer(self, result: DiscoveryResult) -> None:
        buffered = self._repair_buffers.pop(result.destination, [])
        if not buffered:
            return
        if result.succeeded:
            self.stats.local_repairs_succeeded += 1
            for packet in buffered:
                self._forward_data(packet)
        else:
            self.stats.data_dropped_no_route += len(buffered)
            self._report_broken_route(result.destination)

    def _on_data(self, packet: DataPacket, sender: str) -> None:
        if packet.final_destination == self.address:
            self.stats.data_delivered += 1
            metrics = self.sim.obs.metrics
            if metrics is not None:
                metrics.counter("aodv.data_delivered", node=self.node.node_id).inc()
            for sink in self._data_sinks:
                sink(packet)
            return
        if not self._accept_data(packet, sender):
            obs = self.sim.obs
            if obs.metrics is not None:
                obs.metrics.counter(
                    "aodv.data_dropped", node=self.node.node_id, cause="refused"
                ).inc()
            if obs.trace is not None:
                obs.trace.emit(
                    self.node.node_id, "aodv.data_drop", packet, detail="refused"
                )
            return
        self.stats.data_forwarded += 1
        self._forward_data(packet)

    def _accept_data(self, packet: DataPacket, sender: str) -> bool:
        """Whether to forward transit data.  Black holes override to drop."""
        return True

    # ------------------------------------------------------------------
    # Route maintenance: Hello beacons and RERR
    # ------------------------------------------------------------------
    def start_hello(self) -> None:
        """Begin periodic Hello beaconing and neighbour-timeout checks."""
        if self._hello_timer is not None:
            return
        self._hello_timer = PeriodicTimer(
            self.sim,
            self.config.hello_interval,
            self._hello_tick,
            label=f"hello {self.address}",
        )
        self._hello_timer.start()

    def close(self) -> None:
        """Stop beaconing and drop the hooks other layers installed.

        Called when the owning node closes (see :meth:`Node.close
        <repro.net.node.Node.close>`): the detection service and the
        verifier hook bound methods into the protocol and hold the
        protocol's own, and the Hello timer holds the protocol, so each
        closes a reference cycle.
        """
        self.stop_hello()
        self.reply_filter = None
        self._rrep_listeners.clear()

    def stop_hello(self) -> None:
        if self._hello_timer is not None:
            self._hello_timer.cancel()
            self._hello_timer = None

    def _hello_tick(self) -> None:
        metrics = self.sim.obs.metrics
        if metrics is not None:
            metrics.counter("aodv.hello_sent", node=self.node.node_id).inc()
        self.node.send(
            HelloBeacon(
                src=self.address,
                dst=BROADCAST,
                originator=self.address,
                originator_seq=self.own_seq,
            )
        )
        self._check_neighbor_timeouts()

    def _on_hello(self, packet: HelloBeacon, sender: str) -> None:
        sim = self.sim
        now = sim.now
        config = self.config
        self._neighbors_last_heard[sender] = now
        metrics = sim.obs.metrics
        if metrics is not None:
            metrics.counter("aodv.hello_received", node=self.node.node_id).inc()
        expires_at = now + config.hello_interval * (config.allowed_hello_loss + 1)
        entry = self.table.get(sender)
        if (
            entry is not None
            and entry.valid
            and entry.next_hop == sender
            and entry.hop_count == 1
            and entry.destination_seq >= packet.originator_seq
        ):
            # RFC 3561 §6.9: a Hello keeps the route to its sender alive.
            # Extended in place: dense beaconing must not allocate an
            # entry per Hello.
            if entry.expires_at < expires_at:
                entry.expires_at = expires_at
            return
        installed = self.table.consider(
            sender,
            next_hop=sender,
            hop_count=1,
            destination_seq=packet.originator_seq,
            expires_at=expires_at,
            now=now,
        )
        if installed and metrics is not None:
            self._count_route_update()

    def _check_neighbor_timeouts(self) -> None:
        deadline = self.sim.now - (
            self.config.hello_interval * (self.config.allowed_hello_loss + 1)
        )
        silent = [
            n for n, heard in self._neighbors_last_heard.items() if heard < deadline
        ]
        for neighbor in silent:
            del self._neighbors_last_heard[neighbor]
            self._link_broken(neighbor)

    def _link_broken(self, neighbor: str) -> None:
        broken = self.table.invalidate_via(neighbor)
        if not broken:
            return
        self._send_rerr([(e.destination, e.destination_seq) for e in broken])

    def _report_broken_route(self, destination: str) -> None:
        entry = self.table.get(destination)
        if entry is not None and entry.precursors:
            self._send_rerr([(destination, entry.destination_seq)])

    def _send_rerr(self, unreachable: list[tuple[str, int]]) -> None:
        self.stats.rerr_sent += 1
        rerr = RouteError(src=self.address, dst=BROADCAST, unreachable=unreachable)
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("aodv.rerr_sent", node=self.node.node_id).inc()
        if obs.trace is not None:
            obs.trace.emit(
                self.node.node_id, "aodv.rerr_tx", rerr,
                detail=f"unreachable={len(unreachable)}",
            )
        self.node.send(rerr)

    def _on_rerr(self, packet: RouteError, sender: str) -> None:
        affected: list[tuple[str, int]] = []
        for destination, _seq in packet.unreachable:
            entry = self.table.get(destination)
            if entry is not None and entry.valid and entry.next_hop == sender:
                self.table.invalidate(destination)
                affected.append((destination, entry.destination_seq))
        if affected:
            self._send_rerr(affected)
