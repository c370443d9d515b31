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
from tests.helpers import BRUTE_FORCE, brute_neighbors, patch_network


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
    # 75 m/s = 0.667 s) and many windows over the full horizon, so the
    # index rebuilds repeatedly while vehicles cross cell borders.
    t = 0.0
    while t < 60.0:
        t += 0.35
        sim.run(until=t)
        assert_equivalent(net)
    assert net.spatial.rebuilds > 10


def test_fast_vehicle_never_outruns_the_guard_band():
    # a vehicle at exactly the configured top speed, crossing many cells
    sim, net = make_net(spatial_max_speed=75.0, spatial_guard_band=50.0)
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


def test_epoch_expiry_triggers_rebuild_and_counters():
    sim, net = make_net()
    metrics = sim.obs.enable_metrics()
    net.attach(Node(sim, "a", position=(0.0, 0.0)))
    net.attach(Node(sim, "b", position=(100.0, 0.0)))
    net.neighbors(net.nodes[0])
    first = net.spatial.rebuilds
    assert first >= 1
    window = net.spatial.valid_until - net.spatial.built_at
    assert math.isclose(window, 50.0 / 75.0)
    sim.run(until=net.spatial.valid_until + 0.01)
    net.neighbors(net.nodes[0])
    assert net.spatial.rebuilds == first + 1
    assert metrics.value("net.spatial.rebuilds") == net.spatial.rebuilds


def test_rebuild_shows_up_as_profiler_label():
    sim, net = make_net()
    profiler = sim.obs.enable_profiler()
    a = Node(sim, "a", position=(0.0, 0.0))
    b = Node(sim, "b", position=(100.0, 0.0))
    net.attach(a)
    net.attach(b)
    a.send(Packet(src="a", dst=BROADCAST))
    sim.run()
    labels = {cost.label for cost in profiler.report().breakdown}
    assert "spatial rebuild" in labels


def test_spatial_config_validation():
    import pytest

    with pytest.raises(ValueError):
        ChannelConfig(spatial_guard_band=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(spatial_max_speed=-1.0)


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
