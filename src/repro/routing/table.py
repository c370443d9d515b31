"""Per-node AODV routing table.

The update rule is the one black hole attackers exploit: a route with a
strictly higher destination sequence number always replaces the current
one; at equal sequence numbers the shorter route wins.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The precursor set every entry starts with.  Almost no route ever
#: gains a precursor, so entries share this one empty set until
#: :meth:`RoutingTable.add_precursor` gives an entry a real ``set``.
_NO_PRECURSORS: frozenset[str] = frozenset()


@dataclass(slots=True)
class RouteEntry:
    """One destination's forwarding state.

    Slotted, and sharing one empty precursor set: a dense mesh keeps a
    Hello-refreshed route to every one-hop neighbour, so this is most of
    a node's live state.

    Attributes
    ----------
    destination / next_hop:
        On-air addresses.
    hop_count:
        Distance in hops via ``next_hop``.
    destination_seq:
        Freshness stamp; monotone per destination.
    expires_at:
        Route lifetime end (simulation seconds).
    valid:
        Invalidated routes keep their sequence number (per AODV) but are
        not used for forwarding.
    precursors:
        Upstream neighbours routing through us to this destination;
        receivers of RERRs when the route breaks.  Read-only: an empty
        ``frozenset`` until the first :meth:`RoutingTable.add_precursor`,
        and changed only through the table.
    """

    destination: str
    next_hop: str
    hop_count: int
    destination_seq: int
    expires_at: float
    valid: bool = True
    precursors: set[str] | frozenset[str] = _NO_PRECURSORS

    def is_usable(self, now: float) -> bool:
        """Valid, unexpired and therefore usable for forwarding."""
        return self.valid and now < self.expires_at


class RoutingTable:
    """Destination-keyed route store with AODV update semantics.

    >>> table = RoutingTable()
    >>> _ = table.consider("d", next_hop="a", hop_count=3, destination_seq=5,
    ...                    expires_at=100.0, now=0.0)
    >>> table.consider("d", next_hop="b", hop_count=1, destination_seq=4,
    ...                 expires_at=100.0, now=0.0)   # stale seq: rejected
    False
    >>> table.lookup("d", now=0.0).next_hop
    'a'
    """

    def __init__(self) -> None:
        self._routes: dict[str, RouteEntry] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, destination: str) -> bool:
        return destination in self._routes

    def entries(self) -> list[RouteEntry]:
        """All entries (valid or not), for inspection and baselines."""
        return list(self._routes.values())

    def get(self, destination: str) -> RouteEntry | None:
        """Raw entry regardless of validity/expiry."""
        return self._routes.get(destination)

    def lookup(self, destination: str, now: float) -> RouteEntry | None:
        """Usable route to ``destination``, or None."""
        entry = self._routes.get(destination)
        if entry is not None and entry.is_usable(now):
            return entry
        return None

    def consider(
        self,
        destination: str,
        *,
        next_hop: str,
        hop_count: int,
        destination_seq: int,
        expires_at: float,
        now: float,
    ) -> bool:
        """Apply the AODV route-update rule at time ``now``; returns
        True if installed.

        A candidate replaces the current entry when its sequence number
        is strictly higher, or equal with a strictly smaller hop count,
        or when the current entry is inactive: invalid, or expired at
        ``now`` (RFC 3561 §6.2).
        """
        current = self._routes.get(destination)
        if current is not None and current.valid and now < current.expires_at:
            newer = destination_seq > current.destination_seq
            same_but_shorter = (
                destination_seq == current.destination_seq
                and hop_count < current.hop_count
            )
            if not (newer or same_but_shorter):
                return False
        precursors = current.precursors if current is not None else _NO_PRECURSORS
        self._routes[destination] = RouteEntry(
            destination=destination,
            next_hop=next_hop,
            hop_count=hop_count,
            destination_seq=destination_seq,
            expires_at=expires_at,
            precursors=precursors,
        )
        return True

    def invalidate(self, destination: str) -> RouteEntry | None:
        """Mark a route invalid (link break); bumps the sequence number
        per AODV so the stale route can never win again."""
        entry = self._routes.get(destination)
        if entry is None:
            return None
        entry.valid = False
        entry.destination_seq += 1
        return entry

    def invalidate_via(self, next_hop: str) -> list[RouteEntry]:
        """Invalidate every route through ``next_hop``; returns them."""
        broken = [
            e for e in self._routes.values() if e.valid and e.next_hop == next_hop
        ]
        for entry in broken:
            entry.valid = False
            entry.destination_seq += 1
        return broken

    def purge_expired(self, now: float) -> int:
        """Drop entries that expired before ``now``; returns count."""
        stale = [d for d, e in self._routes.items() if e.expires_at <= now]
        for destination in stale:
            del self._routes[destination]
        return len(stale)

    def flush(self) -> int:
        """Drop every entry; returns how many were removed.

        Used for post-conviction cache hygiene: once a black hole is
        announced, a node cannot tell which of its cached routes were
        transitively poisoned by forged sequence numbers, so the safe
        move is to rediscover from scratch.
        """
        count = len(self._routes)
        self._routes.clear()
        return count

    def add_precursor(self, destination: str, neighbor: str) -> None:
        """Record that ``neighbor`` forwards through us to ``destination``."""
        entry = self._routes.get(destination)
        if entry is None:
            return
        if entry.precursors is _NO_PRECURSORS:
            entry.precursors = {neighbor}
        else:
            entry.precursors.add(neighbor)
