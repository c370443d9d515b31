"""Duplicate-RREQ suppression: per-originator id windows against a set.

An AODV node accepts each (originator, RREQ ID) once.  It keeps one
window per originator (``[low, high)`` plus the seen ids outside it)
instead of one key per flood; these tests drive that window with
arbitrary id orders and compare every answer with a plain set of keys.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network, Node
from repro.net.network import BROADCAST
from repro.routing import AodvProtocol
from repro.routing.packets import RouteRequest
from repro.sim import Simulator

ORIGINATORS = ("a", "b", "c")

#: How an originator's next id follows its previous one: consecutive
#: (weighted up, as RFC 3561 §6.3 makes it), a small hole, descending or
#: repeated, or a jump of a million or more either way (flooder ids
#: start at 1,000,000).
STEPS = st.one_of(
    st.just(1),
    st.just(1),
    st.integers(2, 4),
    st.integers(-4, 0),
    st.integers(1_000_000, 3_000_000),
    st.integers(-3_000_000, -1_000_000),
)

ARRIVALS = st.lists(
    st.tuples(st.sampled_from(ORIGINATORS), STEPS), min_size=1, max_size=80
)


def lone_node():
    sim = Simulator(seed=1)
    net = Network(sim)
    node = Node(sim, "n0", position=(0.0, 0.0))
    net.attach(node)
    return AodvProtocol(node)


def rreq(originator, rreq_id):
    return RouteRequest(
        src="nbr", dst=BROADCAST, originator=originator, originator_seq=1,
        destination="nowhere", hop_count=0, rreq_id=rreq_id,
    )


def window_holds(aodv, originator, rreq_id):
    window = aodv._seen_rreqs.get(originator)
    return window is not None and (
        window.low <= rreq_id < window.high or rreq_id in window.extra
    )


@settings(max_examples=200, deadline=None)
@given(starts=st.lists(st.integers(-10, 10), min_size=3, max_size=3),
       arrivals=ARRIVALS)
def test_window_answers_like_a_set_of_keys(starts, arrivals):
    aodv = lone_node()
    oracle: set[tuple[str, int]] = set()
    cursor = dict(zip(ORIGINATORS, starts))
    for originator, step in arrivals:
        rreq_id = cursor[originator] + step
        cursor[originator] = rreq_id
        before = aodv.stats.rreq_rebroadcast
        aodv._on_rreq(rreq(originator, rreq_id), "nbr")
        # Rebroadcast exactly when the key is new.
        first_seen = (originator, rreq_id) not in oracle
        assert aodv.stats.rreq_rebroadcast - before == int(first_seen)
        oracle.add((originator, rreq_id))
        # Every key seen so far, and nothing next to them, is answered
        # as the set answers it.
        for seen_originator, seen_id in oracle:
            for probe in (seen_id - 1, seen_id, seen_id + 1):
                assert window_holds(aodv, seen_originator, probe) == (
                    (seen_originator, probe) in oracle
                )
        for window in aodv._seen_rreqs.values():
            assert window.high not in window.extra
            assert not any(window.low <= i < window.high for i in window.extra)
    assert aodv.stats.rreq_rebroadcast == len(oracle)


def test_in_order_ids_keep_one_window_and_no_id_set():
    aodv = lone_node()
    for rreq_id in range(1_000_000, 1_000_500):
        aodv._on_rreq(rreq("flooder", rreq_id), "nbr")
    window = aodv._seen_rreqs["flooder"]
    assert (window.low, window.high) == (1_000_000, 1_000_500)
    assert window.extra.__class__ is frozenset and not window.extra
    assert aodv.stats.rreq_rebroadcast == 500


def test_out_of_order_ids_are_absorbed_once_the_gap_closes():
    aodv = lone_node()
    for rreq_id in (5, 7, 8, 6):
        aodv._on_rreq(rreq("a", rreq_id), "nbr")
    window = aodv._seen_rreqs["a"]
    assert (window.low, window.high) == (5, 9)
    assert not window.extra


def test_own_flood_is_suppressed_when_it_echoes_back():
    aodv = lone_node()
    aodv.discover("nowhere", lambda result: None)
    aodv._on_rreq(rreq(aodv.address, 1), "nbr")
    assert aodv.stats.rreq_rebroadcast == 0
    aodv._on_rreq(rreq(aodv.address, 2), "nbr")
    assert aodv.stats.rreq_rebroadcast == 1
