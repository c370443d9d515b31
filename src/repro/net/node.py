"""Node base class shared by vehicles and RSUs.

A node owns a position, a radio range, and a handler table mapping packet
types to bound methods.  Identity is split in two:

- ``node_id`` -- the stable long-term identity used for bookkeeping and
  metrics.  It never appears in packets.
- ``address`` -- the current on-air identity (a pseudonym for vehicles, a
  fixed id for RSUs).  The network delivers by address, and vehicles
  re-register when the TA issues them a fresh pseudonym.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.net.packets import Packet
from repro.sim.logging import DEBUG
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

Handler = Callable[[Packet, str], None]

#: Cache-miss sentinel for the dispatch fast path: ``None`` is a valid
#: cached resolution ("no handler"), so absence needs its own marker.
_UNRESOLVED = object()


class Node:
    """A network participant with a position and packet handlers.

    Parameters
    ----------
    simulator:
        The event loop this node schedules on.
    node_id:
        Stable long-term identity (e.g. ``"veh-12"`` or ``"rsu-3"``).
    position:
        Initial ``(x, y)`` coordinates in metres.
    transmission_range:
        Radio range in metres (paper/DSRC: up to 1000 m).
    """

    #: Signed speed in m/s.  Stationary infrastructure keeps this class
    #: default; vehicles override it with a kinematics-backed property.
    #: A plain attribute (not ``getattr`` with a fallback at use sites)
    #: keeps the spatial index's per-rebuild top-speed scan cheap.
    speed: float = 0.0

    def __init__(
        self,
        simulator: Simulator,
        node_id: str,
        position: tuple[float, float] = (0.0, 0.0),
        transmission_range: float = 1000.0,
    ) -> None:
        self.sim = simulator
        self.node_id = node_id
        self._position = position
        self.transmission_range = transmission_range
        self.network: "Network | None" = None
        self._address = node_id
        self._handlers: dict[type, Handler] = {}
        #: memoised handler resolution per concrete packet type; cleared
        #: whenever the handler table changes
        self._dispatch_cache: dict[type, Handler | None] = {}
        self.packets_received = 0
        self.packets_sent = 0
        #: optional admission predicate over (packet, sender address);
        #: packets it rejects are dropped before any handler runs.  The
        #: secure-neighbour-discovery layer wires itself in here to keep
        #: unauthenticated senders out of the protocol stack entirely.
        self.gate: Callable[[Packet, str], bool] | None = None
        self.packets_gated = 0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """Current on-air identity."""
        return self._address

    def set_address(self, address: str) -> None:
        """Adopt a new on-air identity (pseudonym renewal).

        Atomic with respect to the network's address table: when the new
        pseudonym collides with another node's, the whole operation
        rolls back — ``ValueError`` propagates, this node keeps its old
        address and stays registered under it.
        """
        old = self._address
        self._address = address
        if self.network is not None:
            try:
                self.network.readdress(self, old)
            except Exception:
                self._address = old
                raise

    # ------------------------------------------------------------------
    # Position
    # ------------------------------------------------------------------
    @property
    def position(self) -> tuple[float, float]:
        """Current ``(x, y)``; vehicles override with kinematics."""
        return self._position

    def set_position(self, position: tuple[float, float]) -> None:
        self._position = position
        if self.network is not None:
            self.network.note_moved(self)

    def distance_to(self, other: "Node") -> float:
        ax, ay = self.position
        bx, by = other.position
        return ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def register_handler(self, packet_type: type, handler: Handler) -> None:
        """Route received packets of ``packet_type`` to ``handler``.

        The most specific registered type wins: dispatch walks the
        packet's MRO and takes the first registered class, so an exact
        match beats a parent and a parent beats a grandparent no matter
        in which order the handlers were registered.
        """
        self._handlers[packet_type] = handler
        self._dispatch_cache.clear()

    def handler_for(self, packet_type: type) -> Handler | None:
        """Current handler registered for exactly ``packet_type``.

        Lets a protocol layer chain in front of another (e.g. BlackDP
        intercepting probe replies before AODV sees them).
        """
        return self._handlers.get(packet_type)

    def send(self, packet: Packet) -> None:
        """Transmit over the radio (unicast or broadcast by ``packet.dst``)."""
        if self.network is None:
            raise RuntimeError(f"{self.node_id} is not attached to a network")
        self.packets_sent += 1
        self.network.transmit(self, packet)

    def _resolve_handler(self, packet_type: type) -> Handler | None:
        """Most specific handler for ``packet_type``, resolved by MRO.

        The resolution is memoised per concrete type; the cache is
        invalidated whenever :meth:`register_handler` changes the table.
        """
        try:
            return self._dispatch_cache[packet_type]
        except KeyError:
            pass
        handler = None
        for klass in packet_type.__mro__:
            handler = self._handlers.get(klass)
            if handler is not None:
                break
        self._dispatch_cache[packet_type] = handler
        return handler

    def on_receive(self, packet: Packet, sender_address: str) -> None:
        """Dispatch an arriving packet to the registered handler."""
        if self.gate is not None and not self.gate(packet, sender_address):
            self.packets_gated += 1
            return
        self.packets_received += 1
        # Inlined cache hit (the overwhelmingly common case); the
        # sentinel keeps "cached as unhandled" distinct from "never
        # resolved" so the MRO walk runs once per type.
        handler = self._dispatch_cache.get(type(packet), _UNRESOLVED)
        if handler is _UNRESOLVED:
            handler = self._resolve_handler(type(packet))
        if handler is not None:
            handler(packet, sender_address)
        else:
            self.handle_unknown(packet, sender_address)

    def handle_unknown(self, packet: Packet, sender_address: str) -> None:
        """Hook for packets with no registered handler; default: log."""
        logger = self.sim.logger
        # Level check before the f-string: unhandled packets are common
        # (non-member broadcasts) and the rendered message is pure waste
        # at the default WARNING threshold.
        if logger.level <= DEBUG:
            logger.debug(self.node_id, f"dropping unhandled {packet.describe()}")

    def close(self) -> None:
        """Drop this node's handlers, dispatch cache and gate.

        Each of them holds bound methods of the protocols installed on
        the node, and those protocols hold the node: dropping them
        breaks the cycles so a finished world is freed by reference
        counting.  Subclasses drop their protocol objects too.
        """
        self._handlers.clear()
        self._dispatch_cache.clear()
        self.gate = None

    def __repr__(self) -> str:
        x, y = self.position
        return f"<{type(self).__name__} {self.node_id} @ ({x:.0f},{y:.0f})>"
