"""Tests for the sketch package: count-min / space-saving summaries,
the RSU aggregate monitor, and the golden-trace passivity guarantee."""

import itertools
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.net.packets as packets_module
from repro.clusters.membership import MemberRecord, MembershipTable
from repro.core.packets import HelloReply, SecureHello
from repro.experiments.config import ATTACK_SINGLE, TrialConfig
from repro.experiments.trial import run_trial
from repro.net import ChannelConfig, Network, Node
from repro.routing.packets import DataPacket, RouteRequest
from repro.sim import Simulator
from repro.sketch import (
    AggregateMonitor,
    CountMinSketch,
    SketchConfig,
    SpaceSavingSummary,
)

from tests.helpers import cms_merge_cell_by_cell, cms_reset_cell_by_cell


# ----------------------------------------------------------------------
# CountMinSketch
# ----------------------------------------------------------------------
def test_cms_exact_when_underloaded():
    sketch = CountMinSketch(width=64, depth=4, seed=1)
    for key, count in (("a", 3), ("b", 7), ("c", 1)):
        for _ in range(count):
            sketch.add(key)
    assert sketch.estimate("a") == 3.0
    assert sketch.estimate("b") == 7.0
    assert sketch.estimate("c") == 1.0
    assert sketch.estimate("never-seen") == 0.0
    assert sketch.total == 11.0


@settings(max_examples=30, deadline=None)
@given(
    counts=st.dictionaries(
        st.text(min_size=1, max_size=8), st.integers(1, 20),
        min_size=1, max_size=50,
    )
)
def test_cms_never_underestimates(counts):
    sketch = CountMinSketch(width=16, depth=3, seed=5)
    for key, count in counts.items():
        sketch.add(key, count)
    for key, count in counts.items():
        assert sketch.estimate(key) >= count  # one-sided error only


def test_cms_same_seed_instances_agree():
    one = CountMinSketch(width=32, depth=4, seed=9)
    two = CountMinSketch(width=32, depth=4, seed=9)
    for key in ("x", "y", "z", "x"):
        one.add(key)
        two.add(key)
    for key in ("x", "y", "z", "w"):
        assert one.estimate(key) == two.estimate(key)


def test_cms_merge_equals_combined_feed():
    left = CountMinSketch(width=32, depth=4, seed=2)
    right = CountMinSketch(width=32, depth=4, seed=2)
    both = CountMinSketch(width=32, depth=4, seed=2)
    for i in range(40):
        key = f"k{i % 7}"
        (left if i % 2 else right).add(key)
        both.add(key)
    left.merge(right)
    assert left.total == both.total
    for i in range(7):
        assert left.estimate(f"k{i}") == both.estimate(f"k{i}")


def test_cms_merge_rejects_mismatched_geometry():
    base = CountMinSketch(width=32, depth=4, seed=2)
    with pytest.raises(ValueError):
        base.merge(CountMinSketch(width=16, depth=4, seed=2))
    with pytest.raises(ValueError):
        base.merge(CountMinSketch(width=32, depth=4, seed=3))


def test_cms_reset_and_pickle_round_trip():
    sketch = CountMinSketch(width=32, depth=4, seed=7)
    sketch.add("a", 5)
    clone = pickle.loads(pickle.dumps(sketch))
    assert clone.estimate("a") == 5.0
    assert clone.total == 5.0
    clone.add("a")  # the restored salts hash identically
    assert clone.estimate("a") == 6.0
    sketch.reset()
    assert sketch.estimate("a") == 0.0
    assert sketch.total == 0.0


#: One sketch operation: add(key, amount), fold the epoch sketch into
#: the cumulative one, or reset the epoch sketch.
_CMS_OPS = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(["a", "b", "c", "flooder", ""]),
        # small opposite amounts cancel: cells non-zero, total zero
        st.one_of(
            st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.0, -0.0, 2]),
            st.floats(-5.0, 5.0, allow_nan=False),
        ),
    ),
    st.tuples(st.just("merge")),
    st.tuples(st.just("reset")),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CMS_OPS, max_size=40))
@example([("add", "a", 1.0), ("add", "b", -1.0), ("merge",), ("reset",)])
def test_cms_fast_merge_and_reset_match_cell_by_cell(ops):
    # An epoch/cumulative pair driven through the production methods and
    # a twin pair through the cell-by-cell oracle must agree on every
    # row, the total and the pickled bytes (signed zeros included).
    def pair():
        return CountMinSketch(width=16, depth=3, seed=5), CountMinSketch(
            width=16, depth=3, seed=5
        )

    epoch, total = pair()
    oracle_epoch, oracle_total = pair()
    for op in ops:
        if op[0] == "add":
            epoch.add(op[1], op[2])
            oracle_epoch.add(op[1], op[2])
        elif op[0] == "merge":
            total.merge(epoch)
            cms_merge_cell_by_cell(oracle_total, oracle_epoch)
        else:
            epoch.reset()
            cms_reset_cell_by_cell(oracle_epoch)
        for fast, slow in ((epoch, oracle_epoch), (total, oracle_total)):
            assert fast._rows == slow._rows
            assert fast.total == slow.total
            assert pickle.dumps(fast) == pickle.dumps(slow)


# ----------------------------------------------------------------------
# SpaceSavingSummary
# ----------------------------------------------------------------------
def test_space_saving_exact_under_capacity():
    summary = SpaceSavingSummary(8)
    for key, count in (("a", 5), ("b", 2), ("c", 9)):
        summary.add(key, count)
    assert summary.items() == [("c", 9.0, 0.0), ("a", 5.0, 0.0), ("b", 2.0, 0.0)]
    assert len(summary) == 3
    assert "a" in summary and "z" not in summary


def test_space_saving_heavy_hitter_survives_eviction_pressure():
    summary = SpaceSavingSummary(4)
    for i in range(100):
        summary.add("heavy")
        summary.add(f"light-{i}")  # a fresh light key every round
    assert "heavy" in summary
    top_key, count, error = summary.items()[0]
    assert top_key == "heavy"
    # Space-saving error is one-sided: count - error <= true <= count.
    assert count >= 100.0
    assert count - error <= 100.0


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(0, 30), min_size=1, max_size=200),
    capacity=st.integers(1, 16),
)
def test_space_saving_error_bounds(keys, capacity):
    summary = SpaceSavingSummary(capacity)
    for key in keys:
        summary.add(f"k{key}")
    truth = {f"k{k}": keys.count(k) for k in set(keys)}
    assert summary.total == len(keys)
    for key, count, error in summary.items():
        assert count >= truth.get(key, 0)  # never underestimates
        assert count - error <= truth.get(key, 0)
        assert error <= len(keys) / capacity  # Metwally bound


def test_space_saving_merge_and_pickle():
    left = SpaceSavingSummary(4)
    right = SpaceSavingSummary(4)
    for _ in range(10):
        left.add("a")
        right.add("b")
    left.add("c", 3)
    right.add("c", 4)
    left.merge(right)
    merged = dict((key, count) for key, count, _ in left.items())
    assert merged["a"] == 10.0
    assert merged["b"] == 10.0
    assert merged["c"] == 7.0
    clone = pickle.loads(pickle.dumps(left))
    assert clone.items() == left.items()


def test_space_saving_deterministic_eviction():
    runs = []
    for _ in range(2):
        summary = SpaceSavingSummary(3)
        for key in ("a", "b", "c", "d", "e", "d", "e"):
            summary.add(key)
        runs.append(summary.items())
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# SketchConfig
# ----------------------------------------------------------------------
def test_sketch_config_validation():
    for bad in (
        {"width": 0},
        {"depth": 0},
        {"heavy_hitter_capacity": 0},
        {"epoch": 0.0},
        {"warmup_epochs": -1},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"threshold_multiplier": 0.0},
        {"min_threshold": 0.0},
        {"min_threshold": 30.0, "max_threshold": 25.0},
    ):
        with pytest.raises(ValueError):
            SketchConfig(**bad)


# ----------------------------------------------------------------------
# AggregateMonitor (unit level, conviction disabled)
# ----------------------------------------------------------------------
class _StubRsu(Node):
    def __init__(self, sim, node_id, **kwargs):
        super().__init__(sim, node_id, **kwargs)
        self.membership = MembershipTable()
        self.cluster_index = 1


class _StubService:
    def __init__(self, rsu):
        self.rsu = rsu


def make_monitor(**overrides):
    config = SketchConfig(convict=False, **overrides)
    sim = Simulator(seed=1)
    net = Network(sim, ChannelConfig())
    rsu = _StubRsu(sim, "rsu", position=(0.0, 0.0), transmission_range=1000.0)
    net.attach(rsu)
    for member in ("m1", "m2"):
        rsu.membership.join(MemberRecord(address=member, joined_at=0.0))
    monitor = AggregateMonitor(_StubService(rsu), config)
    return sim, monitor


def _rreq(origin, hop_count):
    return RouteRequest(
        src=origin, dst="*", originator=origin, destination="somewhere",
        hop_count=hop_count,
    )


def test_monitor_counts_only_fresh_originations():
    sim, monitor = make_monitor()
    monitor._on_overhear(_rreq("v1", 0), "v1", "*")
    monitor._on_overhear(_rreq("v1", 1), "relay", "*")  # rebroadcast
    monitor._on_overhear(_rreq("v1", 3), "relay", "*")  # rebroadcast
    assert monitor.rreq_rate("v1") == 1.0
    assert monitor.epoch_origins.items()[0][:2] == ("v1", 1.0)


def test_monitor_drop_ratio_from_handoffs_and_forwards():
    sim, monitor = make_monitor(min_drop_samples=4)
    for i in range(10):
        packet = DataPacket(
            src="relay", dst="m1", originator="src", final_destination="far",
            hops_travelled=1,
        )
        monitor._on_overhear(packet, "relay", "m1")
        if i < 2:  # m1 forwards only 2 of 10
            onward = DataPacket(
                src="m1", dst="next", originator="src",
                final_destination="far", hops_travelled=2,
            )
            monitor._on_overhear(onward, "m1", "next")
    assert monitor.drop_ratio("m1") == pytest.approx(0.8)
    assert monitor.drop_ratio("m2") is None  # below the evidence floor
    assert monitor.suspected_droppers(["m1", "m2"]) == ["m1"]


def test_monitor_final_delivery_is_not_an_obligation():
    sim, monitor = make_monitor()
    packet = DataPacket(
        src="relay", dst="m1", originator="src", final_destination="m1",
        hops_travelled=1,
    )
    monitor._on_overhear(packet, "relay", "m1")
    assert monitor.handoffs.estimate("m1") == 0.0


def test_monitor_hello_latency_pairs_nonce():
    sim, monitor = make_monitor()
    monitor._on_overhear(
        SecureHello(src="a", dst="b", originator="a", target="b", nonce=42),
        "a", "b",
    )
    sim.run(until=0.25)
    monitor._on_overhear(
        HelloReply(src="b", dst="a", originator="a", responder="b", nonce=42),
        "b", "a",
    )
    assert monitor.mean_hello_latency("b") == pytest.approx(0.25)
    assert monitor.mean_hello_latency("a") is None


def test_monitor_threshold_stays_clamped_and_tracks_baseline():
    sim, monitor = make_monitor()
    config = monitor.config
    # Quiet epochs: the floor holds.
    sim.run(until=2.5)
    assert monitor.epochs == 2
    assert monitor.threshold == config.min_threshold
    # A noisy epoch with many moderate origins lifts the EWMA baseline,
    # but never past the static ceiling.
    for epoch in range(6):
        for origin in range(8):
            for _ in range(20):
                monitor._on_overhear(_rreq(f"v{origin}", 0), f"v{origin}", "*")
        sim.run(until=sim.now + 1.0)
    assert monitor.baseline_rate > 0.0
    assert config.min_threshold <= monitor.threshold <= config.max_threshold


def test_monitor_epoch_rotation_folds_into_totals():
    sim, monitor = make_monitor()
    monitor._on_overhear(_rreq("v1", 0), "v1", "*")
    sim.run(until=1.5)  # one epoch tick
    assert monitor.epoch_rreq.total == 0.0  # rotated
    assert monitor.total_rreq.estimate("v1") == 1.0
    assert monitor.rreq_rate("v1") == 1.0  # cumulative query spans both


def test_monitor_state_bounded_by_capacity_not_origin_count():
    sim, monitor = make_monitor()
    capacity = monitor.config.heavy_hitter_capacity
    for epoch in range(3):  # 600 distinct origins over three epochs
        for index in range(200):
            origin = f"v{200 * epoch + index}"
            monitor._on_overhear(_rreq(origin, 0), origin, "*")
        assert len(monitor.epoch_origins) == capacity
        sim.run(until=epoch + 1.5)  # rotate into the cumulative summary
        assert len(monitor.total_origins) == capacity
    assert monitor.packets_seen == 600


def test_monitor_stop_detaches_tap_and_epoch_clock():
    sim, monitor = make_monitor()
    monitor.stop()
    monitor._on_overhear(_rreq("v1", 0), "v1", "*")
    sim.run(until=5.0)
    assert monitor.packets_seen == 0
    assert monitor.epochs == 0
    assert monitor.rsu.network._monitors == []


def test_same_seed_monitors_merge_across_rsus():
    _, one = make_monitor()
    _, two = make_monitor()
    one._on_overhear(_rreq("v1", 0), "v1", "*")
    two._on_overhear(_rreq("v1", 0), "v1", "*")
    two._on_overhear(_rreq("v2", 0), "v2", "*")
    one.epoch_rreq.merge(two.epoch_rreq)
    assert one.epoch_rreq.estimate("v1") == 2.0
    assert one.epoch_rreq.estimate("v2") == 1.0


def test_monitor_state_pickles():
    sim, monitor = make_monitor()
    monitor._on_overhear(_rreq("v1", 0), "v1", "*")
    sim.run(until=1.5)
    blob = pickle.dumps(
        (monitor.total_rreq, monitor.total_origins, monitor.threshold)
    )
    total_rreq, total_origins, threshold = pickle.loads(blob)
    assert total_rreq.estimate("v1") == 1.0
    assert threshold == monitor.threshold


# ----------------------------------------------------------------------
# Golden trace: monitors are passive observers
# ----------------------------------------------------------------------
def _traced_trial(sketch):
    packets_module._packet_ids = itertools.count(1)
    config = TrialConfig(
        seed=7, attack=ATTACK_SINGLE, attacker_cluster=4, trace=True,
        sketch=sketch,
    )
    result = run_trial(config)
    return "\n".join(event.to_json() for event in result.trace_events)


def test_sketch_monitors_leave_trace_byte_identical():
    """Off-by-default and measuring-only monitors must both produce the
    exact protocol event stream of a monitor-free run: the monitor never
    transmits and never draws from the simulation RNG."""
    plain = _traced_trial(sketch=None)
    measured = _traced_trial(sketch=SketchConfig(convict=False))
    assert measured == plain
