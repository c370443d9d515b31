"""The radio medium and the wired RSU backbone.

Radio model: unit disk.  Two nodes can exchange packets iff their
Euclidean distance is at most the *smaller* of their ranges, which makes
links bidirectional — the paper's explicit network assumption ("Node A
can hear Node B and Node B can hear Node A").

Deliveries are scheduled events: a packet sent at *t* arrives at
*t + per_hop_delay + jitter*.  Reachability is evaluated at send time;
with millisecond latencies and highway speeds the position drift within
one hop is millimetres, so this is exact for all practical purposes.
Broadcast fan-out is batched: receivers sharing an arrival time form one
*leg*, and a broadcast with several legs rides a *delivery train* — one
event that fires once per leg, with only the next leg in the heap.
Receivers are invoked in exactly the order per-receiver events would
have fired; see ``docs/performance.md`` ("Broadcast delivery trains")
for the ordering argument.  Inside an unprofiled ``Simulator.run`` a
train that has delivered a leg *drains*: while the heap's next entry
is another leg of this network, it pops and delivers that leg itself
instead of returning to the event loop, in the loop's exact order
(``docs/performance.md``, "Draining train legs").  Monitor overhearing
is batched the same way: one event per transmission carries every
in-range monitor.

The backbone maps each RSU address to its wired peers; packets between
connected RSUs take ``wired_hop_delay`` per backbone hop (the
breadth-first path length) and ignore radio range entirely.

Neighbour queries (broadcast fan-out, ``neighbors()``, monitor
overhearing, and the unicast range check) are served by an epoch-based
uniform-grid index (:mod:`repro.net.spatial`) — identical results to
the brute-force scan, at O(nearby cells) per query instead of O(N).  A
broadcast asks the index once (:meth:`Network._reach`): the sender's
neighbourhood, cached for the rest of the epoch once the sender has
queried twice, gives both the receivers and the radio taps, which are
the registered monitors among those receivers.  A unicast's taps take
one pass over the monitors (:meth:`Network._taps`).  Every range
question the medium asks goes through ``neighbors``, ``in_range``,
``_reach`` or ``_taps``.  The per-receiver and brute-force reference
paths live with the tests (``tests/helpers.py``) and replace exactly
those methods; the tests pin seeded runs byte-identical against them.
See ``docs/performance.md``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from operator import add
from typing import Callable

from repro.net.node import _UNRESOLVED, Node
from repro.net.packets import Packet
from repro.net.spatial import SpatialIndex
from repro.sim.events import PRIORITY_NORMAL, Event
from repro.sim.simulator import Simulator

#: Destination address meaning "every node in radio range".
BROADCAST = "*"


@dataclass
class ChannelConfig:
    """Tunable channel parameters.

    Attributes
    ----------
    per_hop_delay:
        Fixed one-hop radio latency in seconds (DSRC-class: ~2 ms).
    jitter:
        Uniform extra delay in ``[0, jitter]`` per delivery.
    loss_rate:
        Probability that any single wireless delivery is lost.
    wired_hop_delay:
        Latency per backbone hop between RSUs.
    account_bytes:
        When True, every transmitted packet is measured through the
        binary wire codec and per-kind byte totals are accumulated in
        the stats (one encode per packet *instance* — the size is
        memoised by :func:`repro.net.codec.wire_size`; off by default).
    spatial_guard_band:
        Metres of kinematic drift the neighbour index
        (:class:`~repro.net.spatial.SpatialIndex`) absorbs between
        rebuilds; queries widen by this much and the snapshot validity
        window is ``guard_band / v_max`` seconds, ``v_max`` being the
        fastest indexed node's speed (no expiry when nothing moves).
    """

    per_hop_delay: float = 0.002
    jitter: float = 0.0005
    loss_rate: float = 0.0
    wired_hop_delay: float = 0.001
    account_bytes: bool = False
    spatial_guard_band: float = 50.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.per_hop_delay < 0 or self.jitter < 0 or self.wired_hop_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.spatial_guard_band <= 0:
            raise ValueError("spatial guard band must be positive")


class _Train:
    """The delivery legs of one broadcast still to fire.

    ``groups`` maps each leg's delay to its receivers.  ``delay`` names
    the leg filed in the heap under ``event``; ``order`` holds the later
    legs' delays, latest first, so ``order.pop()`` yields the next one.
    A leg arrives at ``sent + delay``.
    """

    __slots__ = (
        "event",
        "groups",
        "order",
        "delay",
        "sent",
        "packet",
        "sender_address",
        "__weakref__",
    )

    def __init__(
        self,
        groups: dict,
        order: list,
        delay: float,
        sent: float,
        packet: Packet,
        sender_address: str,
    ) -> None:
        self.event = None
        self.groups = groups
        self.order = order
        self.delay = delay
        self.sent = sent
        self.packet = packet
        self.sender_address = sender_address


@dataclass
class NetworkStats:
    """Counters the metrics layer aggregates."""

    sent: int = 0
    delivered: int = 0
    dropped_out_of_range: int = 0
    dropped_loss: int = 0
    dropped_unknown_address: int = 0
    backbone_sent: int = 0
    backbone_delivered: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_sent: int = 0
    bytes_by_kind: Counter = field(default_factory=Counter)


class Network:
    """The shared medium every node attaches to.

    >>> from repro.sim import Simulator
    >>> sim = Simulator(seed=1)
    >>> net = Network(sim)
    >>> a = Node(sim, "a", position=(0, 0)); net.attach(a)
    >>> b = Node(sim, "b", position=(500, 0)); net.attach(b)
    >>> a.send(Packet(src="a", dst="b")); sim.run()
    >>> b.packets_received
    1
    """

    def __init__(self, simulator: Simulator, config: ChannelConfig | None = None) -> None:
        self.sim = simulator
        self.config = config or ChannelConfig()
        self._by_address: dict[str, Node] = {}
        self.nodes: list[Node] = []
        #: wired links: RSU address -> addresses of its backbone peers
        self.backbone: dict[str, list[str]] = {}
        self.stats = NetworkStats()
        self._rng = simulator.rng("channel")
        #: promiscuous listeners: (node, callback) pairs that overhear
        #: every radio transmission within the node's range
        self._monitors: list[tuple[Node, Callable]] = []
        #: in-flight delivery trains by the event that carries their
        #: legs: how a draining train tells this network's legs from
        #: any other event (instrumentation may wrap an event's action
        #: and arguments, never the event itself)
        self._trains: dict[Event, _Train] = {}
        simulator.queue.train_tables.append(self._trains)
        #: uniform-grid neighbour index; serves broadcast fan-out,
        #: neighbors() and in_range rejection
        self.spatial = SpatialIndex(self, guard_band=self.config.spatial_guard_band)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def attach(self, node: Node) -> None:
        """Register a node on the medium under its current address."""
        if node.address in self._by_address:
            raise ValueError(f"address {node.address!r} already attached")
        node.network = self
        self._by_address[node.address] = node
        self.nodes.append(node)
        self.spatial.add(node)

    def detach(self, node: Node) -> None:
        """Remove a node (e.g. a vehicle leaving the highway).

        Strips *every* trace of the node from the medium: its primary
        address, any disposable-identity aliases still pointing at it
        (so departed pseudonyms become reusable and ``node_at`` goes
        falsy), and its promiscuous monitor registrations (a vehicle
        that left the highway must stop overhearing traffic).
        """
        stale = [
            address
            for address, owner in self._by_address.items()
            if owner is node
        ]
        for address in stale:
            del self._by_address[address]
        if node in self.nodes:
            self.nodes.remove(node)
        self.remove_monitor(node)
        self.spatial.remove(node)
        node.network = None

    def readdress(self, node: Node, old_address: str) -> None:
        """Re-key a node after a pseudonym change.

        Atomic: the new address is validated *before* the old mapping is
        dropped, so a pseudonym collision raises with the address table
        unchanged (the node stays reachable under ``old_address``).
        """
        holder = self._by_address.get(node.address)
        if holder is not None and holder is not node:
            raise ValueError(f"address {node.address!r} already in use")
        if self._by_address.get(old_address) is node:
            del self._by_address[old_address]
        self._by_address[node.address] = node

    def close(self) -> None:
        """Drop the node, address, monitor and train tables and the
        neighbour index: a finished world will not transmit again.

        Nodes point back at their network, so these tables close the
        world's largest reference cycles (see :meth:`World.close
        <repro.experiments.world.World.close>`).  The counters in
        :attr:`stats` stay readable.
        """
        self._by_address.clear()
        self.nodes.clear()
        self._monitors = []
        self._trains.clear()
        self.spatial = None

    def note_moved(self, node: Node) -> None:
        """Re-index a node after an explicit ``set_position`` teleport
        or a speed change."""
        self.spatial.move(node)

    def node_at(self, address: str) -> Node | None:
        """Node currently holding ``address``, if attached."""
        return self._by_address.get(address)

    def add_alias(self, address: str, node: Node) -> None:
        """Register an extra receive address for ``node``.

        Used for BlackDP's *disposable identities*: the examining cluster
        head probes a suspect from a throwaway pseudonym so the attacker
        "feels safe during launching attacks and thinks the CH is a
        normal node".  Packets addressed to the alias reach ``node``.
        """
        if address in self._by_address:
            raise ValueError(f"address {address!r} already in use")
        self._by_address[address] = node

    def remove_alias(self, address: str, node: Node) -> None:
        """Drop an alias previously added with :meth:`add_alias`."""
        if self._by_address.get(address) is node and address != node.address:
            del self._by_address[address]

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def _pair_in_range(self, a: Node, b: Node) -> bool:
        """Exact bidirectional unit-disk check (the oracle predicate)."""
        if a is b:
            return False
        limit = min(a.transmission_range, b.transmission_range)
        return a.distance_to(b) <= limit

    def in_range(self, a: Node, b: Node) -> bool:
        """Bidirectional unit-disk reachability.

        Pairs whose snapshot cells in the spatial index are provably too
        far apart are rejected without computing a distance; the exact
        predicate decides everything else, so the result is identical to
        the brute-force check.
        """
        if not self.spatial.maybe_in_range(a, b):
            return False
        return self._pair_in_range(a, b)

    def neighbors(self, node: Node) -> list[Node]:
        """Nodes currently within bidirectional radio range.

        This is the output of the secure-neighbour-discovery layer the
        paper assumes ("nodes can perform secure neighbor discovery by
        mutual authentication when two nodes are within the transmission
        range of each other"); only attached, in-range nodes appear, in
        attach order.  Served by the grid index (the brute-force scan's
        result, at O(nearby cells) instead of O(N)).
        """
        return self.spatial.neighbors(node)

    def _reach(self, sender: Node) -> tuple[list[Node], tuple]:
        """Receivers of ``sender``'s broadcast and the radio taps that
        overhear it, from one index query (see
        :meth:`SpatialIndex.reach <repro.net.spatial.SpatialIndex.reach>`);
        the receiver list is shared and must not be mutated."""
        return self.spatial.reach(sender, self._monitors)

    def _taps(self, sender: Node) -> tuple:
        """Monitor entries in range of ``sender``, in registration order."""
        return self.spatial.taps(sender, self._monitors)

    # ------------------------------------------------------------------
    # Radio transmission
    # ------------------------------------------------------------------
    def _account_bytes(self, packet: Packet) -> None:
        """Accumulate per-kind wire-byte totals.

        ``wire_size`` memoises the encoded length per packet instance,
        so re-sends (floods forwarding the same object) pay a dict hit
        instead of a full encode.  Packets are treated as frozen once
        transmitted — mutating one afterwards does not invalidate the
        cached size.
        """
        if not self.config.account_bytes:
            return
        from repro.net.codec import CodecError, wire_size

        try:
            packet.size_bytes = wire_size(packet)
        except CodecError:
            pass  # unregistered test packets keep their nominal size
        self.stats.bytes_sent += packet.size_bytes
        self.stats.bytes_by_kind[packet.kind] += packet.size_bytes

    def add_monitor(self, node: Node, callback) -> None:
        """Let ``node`` overhear every radio transmission in its range.

        ``callback(packet, sender_address, intended_dst)`` fires for
        every transmission of another in-range node — the raw material
        for watchdog-style forwarding observation.  Radio only; the
        wired backbone is point-to-point.
        """
        # Rebound, not appended to: the index memoises taps per list.
        self._monitors = [*self._monitors, (node, callback)]

    def remove_monitor(self, node: Node, callback=None) -> None:
        """Remove ``node``'s monitor registrations.

        With ``callback`` given, only that registration is removed —
        several observers (watchdog, aggregate monitor) can share one
        node's radio tap without detaching each other.
        """
        self._monitors = [
            (n, c)
            for n, c in self._monitors
            if n is not node or (callback is not None and c != callback)
        ]

    def _overhear(self, sender: Node, packet: Packet) -> None:
        """Let every monitor in range overhear ``packet`` (the unicast
        path; a broadcast takes its taps from :meth:`_reach`)."""
        taps = self._taps(sender)
        if taps:
            self._schedule_overhear(taps, packet, sender)

    def _schedule_overhear(self, taps: tuple, packet: Packet, sender: Node) -> None:
        """One overhear event carrying every tap of one transmission."""
        sim = self.sim
        sim.queue.push_delivery(
            sim.now + self.config.per_hop_delay,
            self._overhear_arrive,
            (taps, packet, packet.src or sender.address),
            f"overhear {packet.kind}",
            None,
        )

    def _overhear_arrive(
        self, entries: tuple, packet: Packet, sender_address: str
    ) -> None:
        # A monitor removed while the delivery was in flight must not
        # hear it: re-check registration at delivery time, per entry,
        # because an earlier callback in this batch may remove a later
        # monitor (remove_monitor rebinds the list).  Entries are
        # ``(node, callback)`` pairs; tuple equality compares the node
        # by identity and the bound-method callback by (func, self).
        for entry in entries:
            if entry in self._monitors:
                entry[1](packet, sender_address, packet.dst)

    _deliver_labels: dict[str, str] = {}

    def _deliver_label(self, kind: str) -> str:
        """Memoised ``f"deliver {kind}"`` (packet kinds are a small
        closed set, and the hot paths build this label per send)."""
        labels = Network._deliver_labels
        label = labels.get(kind)
        if label is None:
            label = labels[kind] = f"deliver {kind}"
        return label

    def _observe_drop(self, sender: Node, packet: Packet, cause: str) -> None:
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("net.dropped", cause=cause, kind=packet.kind).inc()
        trace = obs.trace
        if trace is not None and trace.records_net:
            trace.emit(sender.node_id, "net.drop", packet, detail=cause)

    def transmit(self, sender: Node, packet: Packet) -> None:
        """Send ``packet``; broadcast fans out to all in-range nodes."""
        stats = self.stats
        stats.sent += 1
        stats.by_kind[packet.kind] += 1
        # Guarded at the call site: byte accounting and overhearing are
        # both off in the common configuration, and the no-op call frames
        # add up at flood rates.
        if self.config.account_bytes:
            self._account_bytes(packet)
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("net.sent", kind=packet.kind).inc()
        trace = obs.trace
        if trace is not None and trace.records_net:
            trace.emit(sender.node_id, "net.send", packet)
        if packet.dst == BROADCAST:
            # One index query serves the fan-out and the radio taps.
            receivers, taps = self._reach(sender)
            if taps:
                self._schedule_overhear(taps, packet, sender)
            self._broadcast_batched(sender, receivers, packet)
            return
        if self._monitors:
            self._overhear(sender, packet)
        receiver = self._by_address.get(packet.dst)
        if receiver is None:
            self.stats.dropped_unknown_address += 1
            self._observe_drop(sender, packet, "unknown-address")
            return
        if not self.in_range(sender, receiver):
            self.stats.dropped_out_of_range += 1
            self._observe_drop(sender, packet, "out-of-range")
            return
        self._deliver(sender, receiver, packet)

    def _broadcast_batched(
        self, sender: Node, receivers: list[Node], packet: Packet
    ) -> None:
        """Fan a broadcast out as one leg per distinct arrival time.

        Per-receiver loss and jitter draws happen here, at send time, in
        receiver order — exactly the draws (and RNG stream order) that
        one :meth:`_deliver` per receiver would make.  Receivers that
        land on the same delay form one leg, invoked in receiver order;
        per-receiver events would have had consecutive sequence numbers,
        so no foreign event can sort between them.  A leg of one receiver is
        kept as the bare node: a list per pending leg would give the
        cycle collector tens of thousands of objects to scan at every
        dense beacon instant.

        A single leg is one delivery event.  Several legs ride a
        :class:`_Train`: legs sorted by arrival (first occurrence breaks
        ties), the first filed through ``push_delivery``, the rest
        counted by :meth:`EventQueue.defer
        <repro.sim.events.EventQueue.defer>` and filed one at a time by
        :meth:`_arrive_train`.  The broadcast still draws one sequence
        number per leg, a consecutive block no other event can fall
        into, so the heap orders every leg against every other event
        exactly as it would the per-leg events.
        """
        config = self.config
        rng = self._rng
        loss_rate = config.loss_rate
        base_delay = config.per_hop_delay
        jitter = config.jitter
        # delay -> the receiver drawing it, or the list of receivers
        # once several draw it (no list for the usual singleton)
        groups: dict[float, Node | list[Node]] = {}
        for receiver in receivers:
            if loss_rate and rng.random() < loss_rate:
                self.stats.dropped_loss += 1
                self._observe_drop(sender, packet, "loss")
                continue
            delay = base_delay + rng.random() * jitter if jitter else base_delay
            bucket = groups.get(delay)
            if bucket is None:
                groups[delay] = receiver
            elif bucket.__class__ is list:
                bucket.append(receiver)
            else:
                groups[delay] = [bucket, receiver]
        if not groups:
            return
        sender_address = packet.src or sender.address
        labels = Network._deliver_labels
        kind = packet.kind
        label = labels.get(kind)
        if label is None:
            label = labels[kind] = f"deliver {kind}"
        sim = self.sim
        now = sim.now
        queue = sim.queue
        if len(groups) == 1:
            ((delay, batch),) = groups.items()
            batch = tuple(batch) if batch.__class__ is list else (batch,)
            queue.push_delivery(
                now + delay,
                self._arrive_batch,
                (batch, packet, sender_address),
                label,
                None,
            )
            return
        # Stable sort on arrival time: ties keep first-occurrence order.
        order = sorted(groups, key=partial(add, now))
        order.reverse()
        first = order.pop()
        train = _Train(groups, order, first, now, packet, sender_address)
        event = train.event = queue.push_delivery(
            now + first, self._arrive_train, (train,), label, None
        )
        self._trains[event] = train
        queue.defer(len(order))

    def _arrive_train(self, train: _Train) -> None:
        """Deliver a train's due leg, then drain: while the heap's next
        entry is another leg of one of this network's trains, pop and
        deliver it here instead of returning to the event loop.

        Legs are taken from the heap top only, so they run in exactly
        the loop's order.  The drain does the loop's bookkeeping for
        each leg it pops (live count, detach, clock, executed count)
        and hands control back whenever the loop would do anything
        else: after ``stop()``, at the ``max_events`` limit, when a
        foreign or cancelled entry is on top, when the next leg lies
        past ``until`` (always, outside an unprofiled ``Simulator.run``:
        ``step()`` and profiled runs go through ``Simulator._execute``
        and never drain), or when the timer wheel may hold an entry due
        first.  See ``docs/performance.md`` ("Draining train legs").
        """
        sim = self.sim
        obs = sim.obs
        queue = sim.queue
        heap = queue._heap
        wheel = queue.wheel
        stats = self.stats
        trains = self._trains
        horizon = sim._horizon
        limit = sim._limit
        while True:
            # File the following leg *before* delivering: handlers then
            # see every later leg pending (and a raising handler leaves
            # them queued).  The leg was counted as live by
            # EventQueue.defer, so only the deferred count moves.  The
            # last leg drops the train's reference to its event, so the
            # finished pair is freed without the cycle GC.
            receivers = train.groups[train.delay]
            order = train.order
            if order:
                event = train.event
                delay = train.delay = order.pop()
                time = train.sent + delay
                sequence = event.sequence = event.sequence + 1
                event.time = time
                event._queue = queue
                heappush(heap, (time, PRIORITY_NORMAL, sequence, event))
                queue._deferred -= 1
            else:
                del trains[train.event]
                train.event = None
            packet = train.packet
            sender_address = train.sender_address
            if receivers.__class__ is list:
                self._arrive_batch(receivers, packet, sender_address)
            else:
                trace = obs.trace
                if obs.metrics is not None or (
                    trace is not None and trace.records_net
                ):
                    self._arrive(receivers, packet, sender_address)
                elif receivers.network is self:
                    # _arrive_batch's dark loop body for one receiver
                    receiver = receivers
                    stats.delivered += 1
                    gate = receiver.gate
                    if gate is not None and not gate(packet, sender_address):
                        receiver.packets_gated += 1
                    else:
                        receiver.packets_received += 1
                        ptype = type(packet)
                        handler = receiver._dispatch_cache.get(ptype, _UNRESOLVED)
                        if handler is _UNRESOLVED:
                            handler = receiver._resolve_handler(ptype)
                        if handler is not None:
                            handler(packet, sender_address)
                        else:
                            receiver.handle_unknown(packet, sender_address)
            # -- drain: is the loop's next event another of our legs? --
            if sim._stopped or not heap:
                return
            entry = heap[0]
            time = entry[0]
            event = entry[3]
            # a cancelled leg is not in the table: the cancel retired
            # its train (EventQueue._note_cancelled)
            train = trains.get(event)
            if (
                train is None
                or time > horizon
                or (wheel.stored and wheel.frontier <= time)
            ):
                return
            # The leg just delivered has returned: count it, unless it
            # is the one at which run() must raise.
            executed = sim.events_executed + 1
            if executed >= limit:
                return
            heappop(heap)
            queue._live -= 1
            event._queue = None
            sim.now = time
            sim.events_executed = executed

    def _arrive_batch(
        self, receivers: tuple | list, packet: Packet, sender_address: str
    ) -> None:
        # Inlined _arrive with the per-packet lookups hoisted: one stats
        # object, one counter resolution and one trace check for the
        # whole batch instead of one per receiver.  Emission order is
        # identical to per-receiver delivery.
        stats = self.stats
        obs = self.sim.obs
        trace = obs.trace
        if trace is not None and not trace.records_net:
            trace = None
        if obs.metrics is None and trace is None:
            # Observability dark for the medium (the profiled/production
            # default, and a trace that records no ``net.*`` kind): the
            # loop is just accounting plus dispatch, with the body of
            # Node.on_receive inlined — the broadcast fan-out delivers
            # the same packet type to every receiver, so the type lookup
            # hoists out of the loop and each receiver pays only its own
            # gate check and handler call.
            ptype = type(packet)
            for receiver in receivers:
                if receiver.network is self:
                    stats.delivered += 1
                    gate = receiver.gate
                    if gate is not None and not gate(packet, sender_address):
                        receiver.packets_gated += 1
                        continue
                    receiver.packets_received += 1
                    handler = receiver._dispatch_cache.get(ptype, _UNRESOLVED)
                    if handler is _UNRESOLVED:
                        handler = receiver._resolve_handler(ptype)
                    if handler is not None:
                        handler(packet, sender_address)
                    else:
                        receiver.handle_unknown(packet, sender_address)
            return
        counter = (
            obs.metrics.counter("net.delivered", kind=packet.kind)
            if obs.metrics is not None
            else None
        )
        for receiver in receivers:
            if receiver.network is not self:
                continue
            stats.delivered += 1
            if counter is not None:
                counter.inc()
            if trace is not None:
                trace.emit(receiver.node_id, "net.deliver", packet)
            receiver.on_receive(packet, sender_address)

    def _deliver(self, sender: Node, receiver: Node, packet: Packet) -> None:
        if self.config.loss_rate and self._rng.random() < self.config.loss_rate:
            self.stats.dropped_loss += 1
            self._observe_drop(sender, packet, "loss")
            return
        delay = self.config.per_hop_delay
        if self.config.jitter:
            delay += self._rng.random() * self.config.jitter
        # The link-layer "from" is the packet's source field, so a node
        # transmitting under an alias (disposable identity) is seen as
        # that alias by the receiver, not as its primary address.
        sender_address = packet.src or sender.address
        sim = self.sim
        sim.queue.push_delivery(
            sim.now + delay,
            self._arrive,
            (receiver, packet, sender_address),
            self._deliver_label(packet.kind),
            None,
        )

    def _arrive(self, receiver: Node, packet: Packet, sender_address: str) -> None:
        # The receiver may have left or re-addressed mid-flight.
        if receiver.network is not self:
            return
        self.stats.delivered += 1
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("net.delivered", kind=packet.kind).inc()
        trace = obs.trace
        if trace is not None and trace.records_net:
            trace.emit(receiver.node_id, "net.deliver", packet)
        receiver.on_receive(packet, sender_address)

    # ------------------------------------------------------------------
    # Wired backbone
    # ------------------------------------------------------------------
    def connect_backbone(self, a: Node, b: Node) -> None:
        """Add a wired link between two (stationary) nodes."""
        for here, there in ((a.address, b.address), (b.address, a.address)):
            peers = self.backbone.setdefault(here, [])
            if there not in peers:
                peers.append(there)

    def disconnect_backbone(self, a: Node, b: Node) -> None:
        """Cut the wired link between two nodes (a backbone partition).

        Both stay on the backbone, so paths through other links remain.
        """
        for here, there in ((a.address, b.address), (b.address, a.address)):
            peers = self.backbone.get(here, ())
            if there in peers:
                peers.remove(there)

    def backbone_path_length(self, src_address: str, dst_address: str) -> int | None:
        """Hops between two backbone nodes (breadth-first), or None when
        either is not on the backbone or no wired path joins them."""
        backbone = self.backbone
        if src_address not in backbone or dst_address not in backbone:
            return None
        hops = {src_address: 0}
        frontier = deque((src_address,))
        while frontier:
            here = frontier.popleft()
            if here == dst_address:
                return hops[here]
            for peer in backbone[here]:
                if peer not in hops:
                    hops[peer] = hops[here] + 1
                    frontier.append(peer)
        return None

    def transmit_backbone(self, sender: Node, packet: Packet) -> bool:
        """Send over the wired backbone to ``packet.dst``.

        Returns False (and drops) when the destination is not reachable
        through wired links.
        """
        hops = self.backbone_path_length(sender.address, packet.dst)
        if hops is None:
            self.stats.dropped_unknown_address += 1
            self._observe_drop(sender, packet, "backbone-unreachable")
            return False
        receiver = self._by_address.get(packet.dst)
        if receiver is None:
            self.stats.dropped_unknown_address += 1
            self._observe_drop(sender, packet, "backbone-unknown-address")
            return False
        self.stats.backbone_sent += 1
        self.stats.by_kind[packet.kind] += 1
        self._account_bytes(packet)
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("net.backbone_sent", kind=packet.kind).inc()
        trace = obs.trace
        if trace is not None and trace.records_net:
            trace.emit(sender.node_id, "net.backbone_send", packet)
        delay = max(1, hops) * self.config.wired_hop_delay
        self.sim.schedule(
            delay,
            self._arrive_backbone,
            args=(receiver, packet, sender.address),
            label=f"backbone {packet.kind}",
        )
        return True

    def _arrive_backbone(
        self, receiver: Node, packet: Packet, sender_address: str
    ) -> None:
        if receiver.network is not self:
            return
        self.stats.backbone_delivered += 1
        obs = self.sim.obs
        if obs.metrics is not None:
            obs.metrics.counter("net.backbone_delivered", kind=packet.kind).inc()
        trace = obs.trace
        if trace is not None and trace.records_net:
            trace.emit(receiver.node_id, "net.backbone_deliver", packet)
        receiver.on_receive(packet, sender_address)
