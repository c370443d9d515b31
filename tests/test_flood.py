"""Tests for the RREQ-flood attacker family and its sketch-based
detection: policy validation, per-variant conviction, pseudonym
pinning, the sweep driver, and scenario-file wiring."""

import dataclasses
import json

import pytest

from repro.attacks.flood import FLOOD_VARIANTS, FloodPolicy, FloodingVehicle
from repro.experiments.config import ATTACK_FLOOD, TrialConfig
from repro.experiments.flood import (
    flood_csv,
    flood_trial_config,
    format_flood_sweep,
    run_flood_sweep,
)
from repro.experiments.scenario_file import ScenarioError, parse_scenario
from repro.experiments.trial import run_trial
from repro.experiments.executor import summarize_trial
from repro.sketch import VERDICT_FLOODER, SketchConfig

from tests.helpers_blackdp import build_world


# ----------------------------------------------------------------------
# FloodPolicy
# ----------------------------------------------------------------------
def test_flood_policy_validation():
    for bad in (
        {"rate": 0.0},
        {"variant": "strobe"},
        {"burst_size": 0},
        {"burst_pause": -0.1},
        {"rotate_every": 0},
        {"start_delay": -1.0},
        {"duration": 0.0},
    ):
        with pytest.raises(ValueError):
            FloodPolicy(**bad)
    assert FloodPolicy().variant in FLOOD_VARIANTS


def test_trial_config_rejects_zero_flooders():
    with pytest.raises(ValueError):
        TrialConfig(seed=1, num_flooders=0)


# ----------------------------------------------------------------------
# Conviction per variant (end to end through the trial pipeline)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", FLOOD_VARIANTS)
def test_flooder_convicted_and_no_honest_convictions(variant):
    config = flood_trial_config(seed=21, variant=variant, vehicles=30)
    result = run_trial(config)
    summary = summarize_trial(config, result)
    assert summary.detected, f"{variant} flooder escaped"
    assert summary.convicted_honest == 0
    flood_records = [
        r for r in result.records if r.verdict == VERDICT_FLOODER
    ]
    assert flood_records
    assert all(r.suspect in result.attacker_addresses for r in flood_records)
    assert "sketch-evidence" in flood_records[0].breakdown[-1]
    assert summary.first_conviction_at is not None
    assert summary.first_conviction_at > config.warmup


def test_flood_trial_without_monitors_sees_nothing():
    """The probe protocol has nothing to convict a flooder with: without
    the aggregate monitors the attack runs to completion unpunished."""
    config = dataclasses.replace(
        flood_trial_config(seed=21, variant="constant", vehicles=30),
        sketch=None,
    )
    result = run_trial(config)
    assert not summarize_trial(config, result).detected


def test_rotating_flooder_pseudonym_pinned_by_revocation():
    """Conviction pauses TA renewals, so the rotating flooder's next
    rotation attempt fails and its current pseudonym stays pinned."""
    world = build_world(seed=5)
    flooder = world.add_flooder(
        "fl", x=2500.0, policy=FloodPolicy(variant="rotating")
    )
    world.install_sketch_monitors()
    world.sim.run(until=10.0)
    convicted = {
        origin for monitor in world.monitors for origin in monitor.convicted
    }
    assert convicted & set(flooder.addresses_used)
    assert not flooder.renew_identity()  # the TA refuses: pinned
    pseudonyms_at_conviction = flooder.pseudonyms_used
    world.sim.run(until=15.0)
    assert flooder.pseudonyms_used == pseudonyms_at_conviction


def test_multiple_flooders_all_convicted():
    config = flood_trial_config(
        seed=33, variant="constant", vehicles=30, num_flooders=2
    )
    result = run_trial(config)
    convicted_attackers = result.convicted_addresses & result.attacker_addresses
    assert len(convicted_attackers) >= 2
    assert not result.false_positive


# ----------------------------------------------------------------------
# Sweep driver
# ----------------------------------------------------------------------
def test_flood_sweep_aggregates_and_formats():
    sweep = run_flood_sweep(
        trials=1, variants=("constant",), vehicles=30, seed=21
    )
    assert len(sweep.rows) == 1
    row = sweep.rows[0]
    assert row.trials == 1
    assert row.all_detected
    assert row.false_positives == 0
    assert sweep.clean
    assert row.mean_detection_time is not None and row.mean_detection_time > 0
    table = format_flood_sweep(sweep)
    assert "sweep verdict: clean" in table
    csv = flood_csv(sweep)
    assert csv.splitlines()[0].startswith("variant,rate,")
    assert csv.count("\n") == 2


def test_flood_sweep_rejects_unknown_variant():
    with pytest.raises(ValueError):
        run_flood_sweep(trials=1, variants=("strobe",))


def test_flood_sweep_rejects_zero_trials():
    # Zero rows would make the sweep verdict a vacuous "clean".
    with pytest.raises(ValueError, match="trials"):
        run_flood_sweep(trials=0, variants=("constant",))


# ----------------------------------------------------------------------
# Scenario files
# ----------------------------------------------------------------------
def test_scenario_file_parses_flood_and_sketch():
    scenario = parse_scenario(
        json.loads(
            json.dumps(
                {
                    "name": "flood sweep",
                    "attack": "flood",
                    "trials": 2,
                    "seed": 50,
                    "vehicles": 30,
                    "flood": {"variant": "bursty", "rate": 40.0},
                    "sketch": {"max_threshold": 30.0},
                    "num_flooders": 2,
                }
            )
        )
    )
    assert scenario.attack == ATTACK_FLOOD
    assert scenario.flood.variant == "bursty"
    assert scenario.sketch.max_threshold == 30.0
    assert scenario.num_flooders == 2
    config = scenario.trial_config(1)
    assert config.seed == 51
    assert config.flood.rate == 40.0
    assert config.sketch.max_threshold == 30.0


def test_scenario_file_sketch_true_means_defaults():
    scenario = parse_scenario({"name": "s", "attack": "none", "sketch": True})
    assert scenario.sketch == SketchConfig()


def test_scenario_file_rejects_bad_flood_keys():
    with pytest.raises(ScenarioError):
        parse_scenario({"attack": "flood", "flood": {"cadence": 3}})
    with pytest.raises(ScenarioError):
        parse_scenario({"attack": "flood", "flood": "fast"})
    with pytest.raises(ScenarioError):
        parse_scenario({"attack": "flood", "sketch": "yes"})
    with pytest.raises(ScenarioError):
        parse_scenario({"attack": "flood", "num_flooders": 0})


def test_flooding_vehicle_counts_fabrications():
    world = build_world(seed=2)
    flooder = world.add_flooder(
        "fl", x=1500.0, policy=FloodPolicy(rate=20.0, start_delay=0.1)
    )
    assert isinstance(flooder, FloodingVehicle)
    world.sim.run(until=3.0)
    assert flooder.rreqs_flooded >= 40  # ~20/s over ~2.9 s
    assert flooder.addresses_used == [flooder.address]
