"""Tests for AODV routing-table semantics."""

import pickle
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from repro.routing import RouteEntry, RoutingTable


def test_install_and_lookup():
    t = RoutingTable()
    assert t.consider("d", next_hop="n", hop_count=2, destination_seq=5, expires_at=10.0, now=0.0)
    entry = t.lookup("d", now=0.0)
    assert entry is not None
    assert entry.next_hop == "n"
    assert len(t) == 1
    assert "d" in t


def test_higher_seq_always_wins():
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=1, destination_seq=5, expires_at=10.0, now=0.0)
    assert t.consider("d", next_hop="b", hop_count=9, destination_seq=6, expires_at=10.0, now=0.0)
    assert t.lookup("d", now=0.0).next_hop == "b"


def test_equal_seq_shorter_route_wins():
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=4, destination_seq=5, expires_at=10.0, now=0.0)
    assert t.consider("d", next_hop="b", hop_count=2, destination_seq=5, expires_at=10.0, now=0.0)
    assert not t.consider("d", next_hop="c", hop_count=3, destination_seq=5, expires_at=10.0, now=0.0)
    assert t.lookup("d", now=0.0).next_hop == "b"


def test_stale_seq_rejected():
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=1, destination_seq=5, expires_at=10.0, now=0.0)
    assert not t.consider("d", next_hop="b", hop_count=1, destination_seq=4, expires_at=10.0, now=0.0)


def test_expired_route_takes_an_equal_sequence_update():
    # RFC 3561 §6.2: an expired route is inactive, so a candidate with
    # the same sequence number and hop count replaces it.
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=2, destination_seq=5, expires_at=10.0, now=0.0)
    assert not t.consider("d", next_hop="b", hop_count=2, destination_seq=5, expires_at=20.0, now=9.0)
    assert t.consider("d", next_hop="b", hop_count=2, destination_seq=5, expires_at=22.0, now=12.0)
    entry = t.lookup("d", now=12.0)
    assert (entry.next_hop, entry.expires_at) == ("b", 22.0)


def test_invalid_route_always_replaceable():
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=1, destination_seq=5, expires_at=10.0, now=0.0)
    t.invalidate("d")
    assert t.lookup("d", now=0.0) is None
    assert t.consider("d", next_hop="b", hop_count=3, destination_seq=2, expires_at=10.0, now=0.0)
    assert t.lookup("d", now=0.0).next_hop == "b"


def test_invalidate_bumps_sequence():
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=1, destination_seq=5, expires_at=10.0, now=0.0)
    entry = t.invalidate("d")
    assert entry.destination_seq == 6
    assert t.invalidate("ghost") is None


def test_expired_route_not_usable_but_entry_kept():
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=1, destination_seq=5, expires_at=10.0, now=0.0)
    assert t.lookup("d", now=10.0) is None
    assert t.get("d") is not None


def test_purge_expired_removes_entries():
    t = RoutingTable()
    t.consider("d1", next_hop="a", hop_count=1, destination_seq=5, expires_at=10.0, now=0.0)
    t.consider("d2", next_hop="a", hop_count=1, destination_seq=5, expires_at=20.0, now=0.0)
    assert t.purge_expired(now=15.0) == 1
    assert t.get("d1") is None
    assert t.get("d2") is not None


def test_invalidate_via_breaks_all_routes_through_hop():
    t = RoutingTable()
    t.consider("d1", next_hop="x", hop_count=1, destination_seq=1, expires_at=99.0, now=0.0)
    t.consider("d2", next_hop="x", hop_count=2, destination_seq=1, expires_at=99.0, now=0.0)
    t.consider("d3", next_hop="y", hop_count=1, destination_seq=1, expires_at=99.0, now=0.0)
    broken = t.invalidate_via("x")
    assert {e.destination for e in broken} == {"d1", "d2"}
    assert t.lookup("d3", now=0.0) is not None


def test_precursors_survive_route_replacement():
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=1, destination_seq=5, expires_at=99.0, now=0.0)
    t.add_precursor("d", "p1")
    t.consider("d", next_hop="b", hop_count=1, destination_seq=6, expires_at=99.0, now=0.0)
    assert "p1" in t.get("d").precursors
    t.add_precursor("ghost", "p2")  # silently ignored


def test_route_entries_are_slotted():
    entry = RouteEntry("d", next_hop="a", hop_count=1, destination_seq=1, expires_at=9.0)
    assert not hasattr(entry, "__dict__")


def test_fresh_entries_share_one_empty_precursor_set():
    t = RoutingTable()
    t.consider("d1", next_hop="a", hop_count=1, destination_seq=1, expires_at=9.0, now=0.0)
    t.consider("d2", next_hop="b", hop_count=1, destination_seq=1, expires_at=9.0, now=0.0)
    assert t.get("d1").precursors is t.get("d2").precursors
    assert not t.get("d1").precursors
    t.add_precursor("d1", "p")
    assert t.get("d1").precursors == {"p"}
    assert not t.get("d2").precursors  # the shared empty set is untouched


def test_add_precursor_after_a_pickle_round_trip():
    # A snapshot restore unpickles a fresh empty frozenset, not the
    # module's shared one: the first precursor must still go in.
    t = RoutingTable()
    t.consider("d", next_hop="a", hop_count=1, destination_seq=1, expires_at=9.0, now=0.0)
    restored = pickle.loads(pickle.dumps(t))
    restored.add_precursor("d", "p1")
    restored.add_precursor("d", "p2")
    assert restored.get("d").precursors == {"p1", "p2"}
    assert not t.get("d").precursors


def test_route_entry_memory_budget():
    # About 376 B per installed route with an instance dict and a fresh
    # empty set each; about 110 B slotted with the shared empty set.
    count = 10_000
    destinations = [f"veh-{i}" for i in range(count)]
    t = RoutingTable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for destination in destinations:
            t.consider(
                destination,
                next_hop=destination,
                hop_count=1,
                destination_seq=1,
                expires_at=9.0,
                now=0.0,
            )
        per_entry = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert len(t) == count
    assert per_entry < 150


@given(
    updates=st.lists(
        st.tuples(st.integers(0, 20), st.integers(1, 10)),  # (seq, hops)
        min_size=1,
        max_size=30,
    )
)
def test_installed_seq_is_monotone_nondecreasing(updates):
    t = RoutingTable()
    last_seq = -1
    for i, (seq, hops) in enumerate(updates):
        t.consider("d", next_hop=f"n{i}", hop_count=hops, destination_seq=seq, expires_at=1e9, now=0.0)
        current = t.get("d").destination_seq
        assert current >= last_seq
        last_seq = current
