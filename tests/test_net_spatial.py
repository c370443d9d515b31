"""Grid-vs-brute-force equivalence for the spatial neighbour index.

The :class:`repro.net.spatial.SpatialIndex` must be *invisible*: every
query returns exactly the list the O(N) scan would (same objects, same
attach order) under randomized topologies, pseudonym churn, disposable
aliases, mid-flight detaches and lazy kinematic motion across cell
borders — that equivalence is what makes seeded experiments
byte-identical to runs on the brute-force reference scan
(``tests/helpers.py``).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import VehicleMotion
from repro.net import BROADCAST, ChannelConfig, Network, Node, Packet
from repro.sim import Simulator
from repro.net.spatial import SpatialIndex
from tests.helpers import (
    BRUTE_FORCE,
    PER_RECEIVER,
    brute_neighbors,
    brute_reach,
    overhear_per_monitor,
    patch_network,
)


class KineticNode(Node):
    """A node with lazily evaluated (motion-driven) position."""

    def __init__(self, sim, node_id, motion, transmission_range=1000.0):
        super().__init__(sim, node_id, transmission_range=transmission_range)
        self.motion = motion

    @property
    def position(self):
        return self.motion.position(self.sim.now)

    @property
    def speed(self):
        return self.motion.speed_at(self.sim.now)


def assert_equivalent(net, probes=None):
    """Grid results == oracle for every node (and extra probe nodes)."""
    for node in list(net.nodes) + list(probes or []):
        assert net.neighbors(node) == brute_neighbors(net, node), (
            f"grid/brute divergence at t={net.sim.now} for {node.node_id}"
        )


def make_net(seed=1, **config):
    sim = Simulator(seed=seed)
    return sim, Network(sim, ChannelConfig(**config))


# ----------------------------------------------------------------------
# Static randomized topologies
# ----------------------------------------------------------------------
@given(
    nodes=st.lists(
        st.tuples(
            st.floats(-2000, 12_000, allow_nan=False),
            st.floats(-500, 500, allow_nan=False),
            st.floats(50, 1500, allow_nan=False),  # transmission range
        ),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=50, deadline=None)
def test_grid_matches_brute_force_on_random_topologies(nodes):
    sim, net = make_net()
    for index, (x, y, range_) in enumerate(nodes):
        net.attach(
            Node(sim, f"n{index}", position=(x, y), transmission_range=range_)
        )
    assert_equivalent(net)


@given(
    positions=st.lists(
        st.floats(0, 10_000, allow_nan=False), min_size=2, max_size=10, unique=True
    )
)
@settings(max_examples=50, deadline=None)
def test_in_range_identical_with_index_on_and_off(positions):
    sim_on, net_on = make_net()
    sim_off, net_off = make_net()
    patch_network(net_off, BRUTE_FORCE)
    on, off = [], []
    for i, x in enumerate(positions):
        on.append(Node(sim_on, f"n{i}", position=(x, 0.0)))
        off.append(Node(sim_off, f"n{i}", position=(x, 0.0)))
        net_on.attach(on[-1])
        net_off.attach(off[-1])
    for a, b in zip(on, off):
        for c, d in zip(on, off):
            assert net_on.in_range(a, c) == net_off.in_range(b, d)


# ----------------------------------------------------------------------
# Churn: attach / detach / readdress / alias / teleport
# ----------------------------------------------------------------------
def test_equivalence_under_membership_churn():
    sim, net = make_net(seed=9)
    rng = sim.rng("churn-test")
    nodes = []
    for i in range(30):
        node = Node(
            sim,
            f"n{i}",
            position=(rng.uniform(0, 8000), rng.uniform(0, 200)),
            transmission_range=rng.choice([300.0, 600.0, 1000.0]),
        )
        net.attach(node)
        nodes.append(node)
    assert_equivalent(net)

    detached = []
    for step in range(60):
        op = rng.randrange(5)
        if op == 0 and len(net.nodes) > 2:  # mid-flight detach
            node = rng.choice(net.nodes)
            net.detach(node)
            detached.append(node)
        elif op == 1:  # attach (possibly a returning vehicle)
            if detached and rng.random() < 0.5:
                node = detached.pop()
                node._address = f"returned-{step}"
            else:
                node = Node(
                    sim, f"new-{step}", position=(rng.uniform(0, 8000), 0.0)
                )
            net.attach(node)
        elif op == 2 and net.nodes:  # pseudonym churn
            rng.choice(net.nodes).set_address(f"pid-{step}")
        elif op == 3 and net.nodes:  # disposable identity lifecycle
            node = rng.choice(net.nodes)
            net.add_alias(f"alias-{step}", node)
            if rng.random() < 0.5:
                net.remove_alias(f"alias-{step}", node)
        else:  # teleport across cells
            if net.nodes:
                rng.choice(net.nodes).set_position(
                    (rng.uniform(-1000, 9000), rng.uniform(0, 200))
                )
        assert_equivalent(net, probes=detached)


def test_teleport_is_visible_immediately():
    sim, net = make_net()
    a = Node(sim, "a", position=(0.0, 0.0))
    b = Node(sim, "b", position=(5000.0, 0.0))
    net.attach(a)
    net.attach(b)
    assert net.neighbors(a) == []
    b.set_position((500.0, 0.0))  # teleport into range, same epoch
    assert net.neighbors(a) == [b]
    assert net.in_range(a, b)
    b.set_position((8000.0, 0.0))
    assert net.neighbors(a) == []
    assert not net.in_range(a, b)


# ----------------------------------------------------------------------
# Lazy kinematics: motion across cell borders, epoch self-invalidation
# ----------------------------------------------------------------------
def test_equivalence_under_kinematic_motion():
    sim, net = make_net(seed=4)
    rng = sim.rng("motion-test")
    for i in range(25):
        motion = VehicleMotion(
            entry_time=0.0,
            entry_x=rng.uniform(0, 10_000),
            speed=rng.uniform(-40.0, 40.0),
            lane_y=rng.uniform(0, 200),
        )
        net.attach(KineticNode(sim, f"veh-{i}", motion, transmission_range=800.0))
    # 0.35 s steps: several queries per validity window (guard 50 m /
    # a top speed under 40 m/s > 1.25 s) and many windows over the full
    # horizon, so the index rebuilds repeatedly while vehicles cross
    # cell borders.
    t = 0.0
    while t < 60.0:
        t += 0.35
        sim.run(until=t)
        assert_equivalent(net)
    assert net.spatial.rebuilds > 10


def test_fast_vehicle_never_outruns_the_guard_band():
    # a vehicle at exactly the top speed it sets, crossing many cells
    sim, net = make_net(spatial_guard_band=50.0)
    flyer = KineticNode(
        sim,
        "flyer",
        VehicleMotion(entry_time=0.0, entry_x=0.0, speed=75.0, lane_y=0.0),
        transmission_range=500.0,
    )
    net.attach(flyer)
    for i in range(10):
        net.attach(
            Node(sim, f"post-{i}", position=(i * 900.0, 0.0), transmission_range=500.0)
        )
    t = 0.0
    while t < 100.0:
        t += 0.25
        sim.run(until=t)
        assert_equivalent(net)


def test_fast_node_attached_mid_epoch_stays_inside_the_drift_bound():
    # A 75 m/s pacer gives the epoch built at t=0 a 0.667 s window; a
    # 300 m/s node attached at t=0.05 would drift 60 m past its snapshot
    # before that window ends unless the attach re-derives it.
    sim, net = make_net(spatial_guard_band=50.0)
    metrics = sim.obs.enable_metrics()
    posts = []
    for i in range(10):
        posts.append(
            Node(sim, f"post-{i}", position=(i * 400.0, 0.0), transmission_range=500.0)
        )
        net.attach(posts[-1])
    pacer = KineticNode(
        sim,
        "pacer",
        VehicleMotion(entry_time=0.0, entry_x=-5000.0, speed=75.0, lane_y=0.0),
        transmission_range=500.0,
    )
    net.attach(pacer)
    spatial = net.spatial
    net.neighbors(posts[0])
    assert spatial.rebuilds == 1
    assert math.isclose(spatial.valid_until, 50.0 / 75.0)
    sim.run(until=0.05)
    fast = KineticNode(
        sim,
        "fast",
        VehicleMotion(entry_time=0.05, entry_x=1000.0, speed=300.0, lane_y=0.0),
        transmission_range=500.0,
    )
    net.attach(fast)
    for step in range(6):
        sim.run(until=0.40 + 0.05 * step)
        assert net.neighbors(posts[4]) == brute_neighbors(net, posts[4])
        assert fast in net.neighbors(posts[4])
    # The query at t=0.40 rebuilt with a 50 / 300 s window, which
    # expired before the one at t=0.60.
    assert spatial.rebuilds == 3
    assert math.isclose(spatial.built_at, 0.60)
    assert math.isclose(spatial.valid_until - spatial.built_at, 50.0 / 300.0)
    assert metrics.value("net.spatial.rebuilds") == 3


def test_fleeing_attacker_faster_than_the_epoch_bound_stays_visible():
    # A flee at 150 m/s set in a world where nothing moved must reach the
    # index: 90 m of drift by t=0.6 closes a 1072 m gap to 982 m.
    from repro.attacks import AttackerPolicy, BlackHoleVehicle
    from repro.mobility import Highway
    from repro.vehicles import VehicleNode

    sim, net = make_net()
    highway = Highway()

    def motion(x):
        return VehicleMotion(entry_time=0.0, entry_x=x, speed=0.0, lane_y=25.0)

    attacker = BlackHoleVehicle(
        sim, highway, "a", motion(0.0), policy=AttackerPolicy(flee_speed=150.0)
    )
    victim = VehicleNode(sim, highway, "b", motion(1072.0))
    net.attach(attacker)
    net.attach(victim)
    assert net.neighbors(attacker) == []
    attacker.flee()
    sim.run(until=0.6)
    assert attacker.distance_to(victim) == 982.0
    assert net.neighbors(victim) == brute_neighbors(net, victim) == [attacker]


# ----------------------------------------------------------------------
# Cached neighbourhoods and radio taps against their oracles
# ----------------------------------------------------------------------
def _scheduled_taps(net, sender):
    """The monitor entries ``overhear_per_monitor`` schedules, in order."""
    scheduled = []
    push = net.sim.queue.push_delivery

    def record(time, action, args, label, pooled):
        scheduled.append((args[1], args[2]))

    net.sim.queue.push_delivery = record
    try:
        overhear_per_monitor(net, sender, Packet(src=sender.address, dst=BROADCAST))
    finally:
        net.sim.queue.push_delivery = push
    return tuple(scheduled)


def _hood_world(seed):
    sim, net = make_net(seed=seed)
    rng = sim.rng("hood-test")
    for i in range(8):
        motion = VehicleMotion(
            entry_time=0.0,
            entry_x=rng.uniform(0, 3000),
            speed=rng.uniform(-70.0, 70.0),
            lane_y=rng.uniform(0, 30),
        )
        net.attach(
            KineticNode(sim, f"veh-{i}", motion, rng.choice([400.0, 700.0]))
        )
    for i in range(3):
        net.attach(Node(sim, f"rsu-{i}", position=(i * 1200.0, 50.0)))
    return sim, net


_HOOD_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "query",
                "send",
                "tick",
                "step",
                "expire",
                "attach",
                "detach",
                "readdress",
                "alias",
                "teleport",
                "add_monitor",
                "remove_monitor",
            ]
        ),
        st.integers(0, 1000),
        st.floats(0.0, 1.0),
    ),
    max_size=30,
)


@given(seed=st.integers(0, 50), ops=_HOOD_OPS)
@settings(max_examples=60, deadline=None)
def test_cached_neighbourhoods_and_taps_match_the_oracles(seed, ops):
    sim, net = _hood_world(seed)
    heard = []
    detached = []

    def check(node):
        receivers, taps = net._reach(node)
        assert receivers == brute_neighbors(net, node)
        assert taps == _scheduled_taps(net, node) == brute_reach(net, node)[1]
        assert net._taps(node) == taps
        assert net.neighbors(node) == receivers

    for step, (op, pick, fraction) in enumerate(ops):
        nodes = net.nodes
        node = nodes[pick % len(nodes)] if nodes else None
        if op == "query" and node is not None:
            for _ in range(3):  # scan, build, hit
                check(node)
        elif op == "send" and node is not None:
            node.send(Packet(src=node.address, dst=BROADCAST))
        elif op == "tick":  # overhear events stay in flight
            sim.run(until=sim.now + 0.001)
        elif op == "step":  # within the epoch
            sim.run(until=sim.now + 0.05 + 0.2 * fraction)
        elif op == "expire":
            sim.run(until=sim.now + 0.7 + fraction)
        elif op == "attach":
            if detached and fraction < 0.5:
                returning = detached.pop()
                returning._address = f"back-{step}"
                net.attach(returning)
            else:
                net.attach(
                    Node(sim, f"new-{step}", position=(3000 * fraction, 10.0))
                )
        elif op == "detach" and len(nodes) > 2:
            net.detach(node)
            detached.append(node)
        elif op == "readdress" and node is not None:
            node.set_address(f"pid-{step}")
        elif op == "alias" and node is not None:
            net.add_alias(f"alias-{step}", node)
        elif op == "teleport" and node is not None:
            node.set_position((3000 * fraction, 20.0))
        elif op == "add_monitor" and node is not None:
            net.add_monitor(
                node,
                lambda p, s, d, n=node.node_id: heard.append((n, s, d, sim.now)),
            )
        elif op == "remove_monitor" and node is not None:
            net.remove_monitor(node)
        for other in net.nodes:
            check(other)
    sim.run(until=sim.now + 0.01)


def test_cached_entry_holds_for_the_whole_epoch():
    # Head-on and receding pairs at 70 m/s close or open 2g = 100 m over
    # the 0.714 s epoch their speed sets: an entry filed at its start
    # must still be exact at its end, which takes the full 2g borderline
    # band.
    sim, net = make_net(spatial_guard_band=50.0)

    def vehicle(name, x, speed):
        motion = VehicleMotion(entry_time=0.0, entry_x=x, speed=speed)
        node = KineticNode(sim, name, motion, transmission_range=500.0)
        net.attach(node)
        return node

    hub = vehicle("hub", 0.0, 70.0)
    vehicle("closing", 580.0, -70.0)
    vehicle("opening", -420.0, -70.0)
    net.neighbors(hub)
    net.neighbors(hub)
    assert net.spatial.hood_builds == 1
    for step in range(1, 15):
        sim.run(until=0.05 * step)
        assert net.neighbors(hub) == brute_neighbors(net, hub)
    assert net.spatial.rebuilds == 1
    assert math.isclose(net.spatial.valid_until, 50.0 / 70.0)
    assert [n.node_id for n in net.neighbors(hub)] == ["closing"]


def test_neighbourhood_entry_is_filed_on_the_second_query_of_an_epoch():
    sim, net = make_net()
    a = Node(sim, "a", position=(0.0, 0.0))
    b = Node(sim, "b", position=(500.0, 0.0))
    net.attach(a)
    net.attach(b)
    spatial = net.spatial
    assert net.neighbors(a) == [b]
    assert (spatial.hood_builds, spatial.hood_hits) == (0, 0)
    assert net.neighbors(a) == [b]
    assert (spatial.hood_builds, spatial.hood_hits) == (1, 0)
    assert net.neighbors(a) == [b]
    assert (spatial.hood_builds, spatial.hood_hits) == (1, 1)
    assert net.neighbors(a) is not net.neighbors(a)  # a fresh list each
    # any membership change drops every entry
    c = Node(sim, "c", position=(900.0, 0.0))
    net.attach(c)
    net.neighbors(a)
    net.neighbors(a)
    assert net.neighbors(a) == [b, c]
    assert (spatial.hood_builds, spatial.hood_hits) == (2, 4)


def test_snapshot_drops_cached_neighbourhoods():
    import pickle

    sim, net = make_net()
    a = Node(sim, "a", position=(0.0, 0.0))
    net.attach(a)
    net.attach(Node(sim, "b", position=(500.0, 0.0)))
    net.neighbors(a)
    net.neighbors(a)
    assert net.spatial._hoods
    restored = pickle.loads(pickle.dumps(net))
    assert restored.spatial._hoods == {}
    assert [n.node_id for n in restored.neighbors(restored.nodes[0])] == ["b"]


def test_epoch_expiry_triggers_rebuild_and_counters():
    # The only moving node, at the paper's top speed of 90 km/h, sets
    # the window: 50 m of guard band last 2 s.
    sim, net = make_net()
    metrics = sim.obs.enable_metrics()
    net.attach(Node(sim, "a", position=(0.0, 0.0)))
    motion = VehicleMotion(entry_time=0.0, entry_x=100.0, speed=25.0)
    net.attach(KineticNode(sim, "b", motion))
    net.neighbors(net.nodes[0])
    assert net.spatial.rebuilds == 1
    window = net.spatial.valid_until - net.spatial.built_at
    assert math.isclose(window, 50.0 / 25.0)
    sim.run(until=net.spatial.valid_until + 0.01)
    net.neighbors(net.nodes[0])
    assert net.spatial.rebuilds == 2
    assert metrics.value("net.spatial.rebuilds") == 2


def test_static_mesh_builds_once_and_answers_repeats_from_its_cache():
    # Nothing moves, so the epoch never expires and a pair's snapshot
    # distance is its distance: every cached neighbourhood is exact,
    # with no borderline list to re-check.
    sim, net = make_net(seed=5)
    rng = sim.rng("static-mesh")
    for i in range(40):
        net.attach(
            Node(
                sim,
                f"n{i}",
                position=(rng.uniform(0, 6000), rng.uniform(0, 600)),
                transmission_range=rng.choice([400.0, 700.0, 1000.0]),
            )
        )
    spatial = net.spatial
    for query in range(1, 5):
        sim.run(until=sim.now + 5.0)
        for node in net.nodes:
            hits = spatial.hood_hits
            assert net.neighbors(node) == brute_neighbors(net, node)
            assert spatial.hood_hits == hits + (query > 2)
    assert spatial.rebuilds == 1
    assert spatial.valid_until == math.inf
    assert spatial.hood_builds == len(net.nodes)
    assert spatial.hood_hits == 2 * len(net.nodes)
    assert set(spatial._hoods) == set(net.nodes)
    assert all(hood.border == [] for hood in spatial._hoods.values())


def _speed_changing_world(speeds, ranges):
    from repro.mobility import Highway
    from repro.vehicles import VehicleNode

    sim, net = make_net()
    highway = Highway()
    vehicles = []
    for i, (speed, range_) in enumerate(zip(speeds, ranges)):
        motion = VehicleMotion(
            entry_time=0.0, entry_x=400.0 * i, speed=speed, lane_y=25.0
        )
        vehicle = VehicleNode(
            sim, highway, f"veh-{i}", motion, transmission_range=range_
        )
        net.attach(vehicle)
        vehicles.append(vehicle)
    return sim, net, vehicles


@given(
    speeds=st.lists(
        st.one_of(st.just(0.0), st.floats(-40.0, 40.0)), min_size=2, max_size=8
    ),
    ranges=st.lists(st.sampled_from([300.0, 600.0, 1000.0]), min_size=8, max_size=8),
    changes=st.lists(
        st.tuples(
            st.floats(0.0, 2.0),  # simulated seconds before the change
            st.sampled_from(["hold", "stop", "faster", "within"]),
            st.integers(0, 7),
            st.floats(0.0, 1.0),
            st.booleans(),
            st.floats(0.0, 2.0),  # simulated seconds before the queries
        ),
        max_size=12,
    ),
)
@settings(max_examples=80, deadline=None)
def test_speed_changes_announced_through_set_speed_keep_the_oracle(
    speeds, ranges, changes
):
    # A node's speed bounds its motion until its next announced change;
    # speed changes at random instants, from a stop to faster than any
    # speed seen and back, must reach the index through set_speed.
    sim, net, vehicles = _speed_changing_world(speeds, ranges)

    def check():
        for node in vehicles:
            for _ in range(3):  # scan, build, hit
                assert net.neighbors(node) == brute_neighbors(net, node)

    check()
    fastest = max(abs(speed) for speed in speeds)
    for wait, kind, pick, fraction, backwards, query_wait in changes:
        sim.run(until=sim.now + wait)
        vehicle = vehicles[pick % len(vehicles)]
        sign = -1.0 if backwards else 1.0
        if kind == "stop":
            vehicle.set_speed(0.0)
        elif kind == "faster":
            fastest += 1.0 + 100.0 * fraction
            vehicle.set_speed(sign * fastest)
        elif kind == "within":
            vehicle.set_speed(sign * fastest * fraction)
        sim.run(until=sim.now + query_wait)
        check()


def test_spatial_config_validation():
    import pytest

    with pytest.raises(ValueError):
        ChannelConfig(spatial_guard_band=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(spatial_guard_band=-1.0)


# ----------------------------------------------------------------------
# The acceptance bar: a full Table I trial is byte-identical on/off
# ----------------------------------------------------------------------
def _trial_fingerprint():
    from repro.experiments.config import TrialConfig
    from repro.experiments.trial import run_trial

    result = run_trial(TrialConfig(seed=11))
    return (
        repr(result.records),
        repr(result.outcome),
        sorted(result.attacker_addresses),
        sorted(result.honest_addresses),
        result.policy_name,
    )


def test_table1_trial_byte_identical_with_index_on_and_off(monkeypatch):
    with_grid = _trial_fingerprint()
    for name, function in BRUTE_FORCE.items():
        monkeypatch.setattr(Network, name, function)
    without_grid = _trial_fingerprint()
    assert with_grid == without_grid


def test_brute_force_oracle_leaves_the_index_untouched(monkeypatch):
    # Every range question the medium asks goes through a method that
    # BRUTE_FORCE replaces, so the patched run never consults the grid.
    indexes = []
    init = SpatialIndex.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        indexes.append(self)

    monkeypatch.setattr(SpatialIndex, "__init__", recording_init)
    for name, function in BRUTE_FORCE.items():
        monkeypatch.setattr(Network, name, function)
    _trial_fingerprint()
    assert indexes
    assert [(i.queries, i.hood_builds, i.rebuilds) for i in indexes] == [
        (0, 0, 0)
    ] * len(indexes)


def _flood_trial_trace():
    import itertools

    import repro.net.packets as packets_module
    from repro.arena import ArenaConfig
    from repro.experiments.config import TableIConfig, TrialConfig
    from repro.experiments.executor import summarize_trial
    from repro.experiments.trial import run_trial

    packets_module._packet_ids = itertools.count(1)
    config = TrialConfig(
        seed=11,
        attack="flood",
        attacker_cluster=5,
        table=TableIConfig(num_vehicles=20),
        arena=ArenaConfig(detectors=("sketch",)),
        trace=True,
        settle_time=2.0,
    )
    result = run_trial(config)
    assert result.detected and result.trace_dropped == 0
    trace = "\n".join(event.to_json() for event in result.trace_events)
    return trace, summarize_trial(config, result).to_dict()


def test_flood_trial_radio_taps_byte_identical_to_the_oracles(monkeypatch):
    # Table I trials install no monitors; a flood trial under the RSU
    # sketch taps runs the broadcast tap path through the index.
    production = _flood_trial_trace()
    for name, function in {**BRUTE_FORCE, **PER_RECEIVER}.items():
        monkeypatch.setattr(Network, name, function)
    assert _flood_trial_trace() == production
