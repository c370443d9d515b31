"""Stateful property test: the routing table against a reference model.

Hypothesis drives random interleavings of installs, invalidations,
expirations and flushes, checking after every step that the table's
observable behaviour matches a simple reference implementation of the
AODV update rule.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.routing import RoutingTable

DESTINATIONS = ["d1", "d2", "d3"]
HOPS = ["n1", "n2", "n3"]


class RoutingTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = RoutingTable()
        #: reference: destination -> (next_hop, hops, seq, expires, valid)
        self.model: dict[str, tuple] = {}
        self.clock = 0.0

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    @rule(
        destination=st.sampled_from(DESTINATIONS),
        next_hop=st.sampled_from(HOPS),
        hops=st.integers(1, 10),
        seq=st.integers(0, 50),
        lifetime=st.floats(1.0, 50.0),
    )
    def consider(self, destination, next_hop, hops, seq, lifetime):
        expires = self.clock + lifetime
        installed = self.table.consider(
            destination,
            next_hop=next_hop,
            hop_count=hops,
            destination_seq=seq,
            expires_at=expires,
            now=self.clock,
        )
        current = self.model.get(destination)
        should_install = (
            current is None
            or not current[4]
            or self.clock >= current[3]
            or seq > current[2]
            or (seq == current[2] and hops < current[1])
        )
        assert installed == should_install
        if should_install:
            self.model[destination] = (next_hop, hops, seq, expires, True)

    @rule(destination=st.sampled_from(DESTINATIONS))
    def invalidate(self, destination):
        self.table.invalidate(destination)
        current = self.model.get(destination)
        if current is not None:
            self.model[destination] = (
                current[0], current[1], current[2] + 1, current[3], False,
            )

    @rule(next_hop=st.sampled_from(HOPS))
    def invalidate_via(self, next_hop):
        self.table.invalidate_via(next_hop)
        for destination, current in list(self.model.items()):
            if current[4] and current[0] == next_hop:
                self.model[destination] = (
                    current[0], current[1], current[2] + 1, current[3], False,
                )

    @rule(dt=st.floats(0.5, 20.0))
    def advance_clock(self, dt):
        self.clock += dt

    @rule()
    def purge(self):
        self.table.purge_expired(self.clock)
        self.model = {
            d: entry for d, entry in self.model.items() if entry[3] > self.clock
        }

    @rule()
    def flush(self):
        self.table.flush()
        self.model.clear()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def lookups_match_model(self):
        for destination in DESTINATIONS:
            entry = self.table.lookup(destination, self.clock)
            current = self.model.get(destination)
            usable = (
                current is not None and current[4] and self.clock < current[3]
            )
            if usable:
                assert entry is not None
                assert entry.next_hop == current[0]
                assert entry.hop_count == current[1]
                assert entry.destination_seq == current[2]
            else:
                assert entry is None


TestRoutingTableStateful = RoutingTableMachine.TestCase
TestRoutingTableStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
