"""Tests for Wilson confidence intervals and the M/D/1 validation of the
RSU compute model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import wilson_interval


def test_perfect_score_interval_excludes_low_values():
    p = wilson_interval(150, 150)
    assert p.estimate == 1.0
    assert p.high == 1.0
    assert 0.97 < p.low < 1.0


def test_zero_score_interval_mirrors_perfect():
    p = wilson_interval(0, 150)
    assert p.estimate == 0.0
    assert p.low == 0.0
    assert 0.0 < p.high < 0.03


def test_half_score_interval_is_symmetric_about_half():
    p = wilson_interval(75, 150)
    assert p.contains(0.5)
    assert abs((0.5 - p.low) - (p.high - 0.5)) < 1e-9


def test_interval_narrows_with_more_trials():
    narrow = wilson_interval(150, 150)
    wide = wilson_interval(10, 10)
    assert (narrow.high - narrow.low) < (wide.high - wide.low)


def test_zero_trials_is_maximally_uncertain():
    p = wilson_interval(0, 0)
    assert (p.low, p.high) == (0.0, 1.0)


def test_validation():
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)


@given(trials=st.integers(1, 500), successes_fraction=st.floats(0, 1))
def test_interval_always_brackets_estimate(trials, successes_fraction):
    successes = int(round(successes_fraction * trials))
    p = wilson_interval(successes, trials)
    assert 0.0 <= p.low <= p.estimate <= p.high <= 1.0
    assert str(p).startswith(f"{p.estimate:.3f}")


# ----------------------------------------------------------------------
# M/D/1 validation of the RSU processor
# ----------------------------------------------------------------------
def test_processor_matches_pollaczek_khinchine_mean_wait():
    """Under Poisson arrivals the single-core deterministic-service
    processor is an M/D/1 queue; its simulated mean wait must match the
    Pollaczek-Khinchine prediction  W = s + rho*s / (2(1-rho))."""
    from repro.core.processing import RsuProcessor
    from repro.sim import Simulator

    service_time = 0.01
    arrival_rate = 60.0  # rho = 0.6
    sim = Simulator(seed=9)
    processor = RsuProcessor(sim, service_time=service_time)
    rng = sim.rng("arrivals")

    t = 0.0
    for _ in range(4000):
        t += rng.expovariate(arrival_rate)
        sim.schedule_at(t, lambda: processor.submit(lambda: None))
    sim.run()

    rho = arrival_rate * service_time
    expected = service_time + rho * service_time / (2 * (1 - rho))
    measured = processor.stats.mean_wait
    assert measured == pytest.approx(expected, rel=0.10)
