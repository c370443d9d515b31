"""Tests for the experiment harness: configs, trials, regenerators, CLI."""

import pytest

from repro.experiments import TableIConfig, TrialConfig, run_trial
from repro.experiments.__main__ import main as cli_main
from repro.experiments.figure4 import check_expected_shape, run_figure4
from repro.experiments.figure5 import bands, run_figure5
from repro.experiments.sweeps import (
    run_baseline_comparison,
    run_overhead_sweep,
    run_probe_ablation,
)
from repro.experiments.trial import choose_destination_cluster, sample_policy
from repro.experiments.world import build_world
from repro.attacks import AttackerPolicy
from repro.sim import Simulator


def test_table1_matches_paper():
    table = TableIConfig()
    assert table.num_vehicles == 100
    assert table.num_rsus == 10
    assert table.transmission_range == 1000.0
    assert table.highway_length == 10_000.0
    assert table.highway_width == 200.0
    assert table.cluster_length == 1000.0
    assert (table.speed_min_kmh, table.speed_max_kmh) == (50.0, 90.0)
    assert table.renewal_zone == (8, 9, 10)
    assert table.trials == 150
    assert len(table.rows()) == 7


def test_table1_world_stands_up_as_configured():
    table = TableIConfig()
    world = build_world(seed=1, highway=table.make_highway())
    world.populate(table.num_vehicles)
    world.sim.run(until=1.0)
    assert len(world.rsus) == 10
    assert len(world.vehicles) == 100
    assert world.highway.length == 10_000.0
    assert world.highway.width == 200.0
    assert world.highway.cluster_length == 1000.0
    assert all(v.transmission_range == 1000.0 for v in world.vehicles)
    assert all(v.current_cluster is not None for v in world.vehicles)


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(attack="rushing")  # not an attack family we model
    with pytest.raises(ValueError):
        TrialConfig(attacker_cluster=11)
    with pytest.raises(ValueError):
        TrialConfig(trace="exam.")  # a prefix tuple, not a bare string


def test_destination_never_near_attacker():
    for cluster in range(1, 11):
        config = TrialConfig(attacker_cluster=cluster)
        dest = choose_destination_cluster(config)
        assert abs(dest - cluster) >= 2
        assert 1 <= dest <= 10


def test_policy_sampling_zones():
    rng = Simulator(seed=3).rng("trial")
    inside = TrialConfig(attacker_cluster=9)
    outside = TrialConfig(attacker_cluster=3)
    assert sample_policy(outside, rng)[0] == "aggressive"
    names = {sample_policy(inside, rng)[0] for _ in range(50)}
    assert "aggressive" in names
    assert len(names) > 1  # evasive behaviours actually sampled


def test_policy_sampling_explicit_override():
    rng = Simulator(seed=3).rng("trial")
    config = TrialConfig(
        attacker_cluster=9, policy=AttackerPolicy.act_legitimately()
    )
    name, policy = sample_policy(config, rng)
    assert name == "explicit"
    assert policy.respond_probability == 0.0


def _small_table():
    return TableIConfig(num_vehicles=20)


def test_trial_none_attack_clean():
    result = run_trial(TrialConfig(seed=5, attack="none", table=_small_table()))
    assert not result.attack_present
    assert not result.detected
    assert not result.false_positive
    assert result.outcome is not None


def test_trial_single_aggressive_detected():
    result = run_trial(
        TrialConfig(
            seed=6, attack="single", attacker_cluster=4, table=_small_table(),
            policy=AttackerPolicy.aggressive(),
        )
    )
    assert result.attack_present
    assert result.detected
    assert not result.false_positive
    assert result.attack_impeded
    assert result.detection_packets in range(6, 10)


def test_trial_cooperative_detects_both():
    result = run_trial(
        TrialConfig(
            seed=7, attack="cooperative", attacker_cluster=4,
            table=_small_table(), policy=AttackerPolicy.aggressive(),
        )
    )
    assert result.detected
    assert len(result.convicted_addresses & result.attacker_addresses) == 2
    assert result.detection_packets in range(8, 12)


def test_trial_act_legit_attacker_evades_but_cannot_harm():
    result = run_trial(
        TrialConfig(
            seed=8, attack="single", attacker_cluster=9, table=_small_table(),
            policy=AttackerPolicy.act_legitimately(),
        )
    )
    assert not result.detected  # the FN the paper reports for 8-10
    assert not result.false_positive
    assert result.attack_impeded  # it never attacked, so nothing was lost


def test_figure4_small_run_matches_shape():
    rows = run_figure4(trials=3, attacks=("single",), clusters=(2, 9))
    assert len(rows) == 2
    by_cluster = {row.cluster: row for row in rows}
    assert by_cluster[2].accuracy == 1.0
    assert by_cluster[2].false_positive_rate == 0.0
    assert by_cluster[9].false_positive_rate == 0.0
    assert all(0.0 <= row.accuracy <= 1.0 for row in rows)


def test_figure4_shape_checker_flags_bad_rows():
    from repro.experiments.figure4 import Figure4Row

    bad = [
        Figure4Row("single", 3, 50, accuracy=0.5, true_positive_rate=0.5,
                   false_positive_rate=0.0, false_negative_rate=0.5),
        Figure4Row("single", 9, 50, accuracy=1.0, true_positive_rate=1.0,
                   false_positive_rate=0.1, false_negative_rate=0.0),
    ]
    problems = check_expected_shape(bad)
    assert len(problems) == 3  # low acc outside zone, FPR>0, no drop inside


@pytest.fixture(scope="module")
def figure5_rows():
    return run_figure5()


def test_figure5_matches_paper_exactly(figure5_rows):
    mismatches = [r for r in figure5_rows if not r.matches_paper]
    assert mismatches == []


def test_figure5_bands(figure5_rows):
    measured = bands(figure5_rows)
    assert measured["none"] == (4, 6)
    assert measured["single"] == (6, 9)
    assert measured["cooperative"] == (8, 11)


def test_cli_table1(capsys):
    assert cli_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Highway length" in out
    assert "10km" in out


def test_cli_figure5(capsys):
    assert cli_main(["figure5"]) == 0
    out = capsys.readouterr().out
    assert "band cooperative: 8-11" in out


def test_cli_rejects_unknown_attack(capsys):
    assert cli_main(["figure4", "--attacks", "rushing"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["figure4", "--trials", "0"],
        ["figure5", "--jobs", "0"],
        ["figure5", "--cache-dir", "unused-cache", "--jobs", "0"],
        ["report", "--out", "unused-report", "--trials", "0"],
        ["arena", "--smoke", "--jobs", "0"],
        ["arena", "--smoke", "--batch", "0"],
        ["arena", "--smoke", "--vehicles", "0"],
        ["arena", "--trials", "-1"],
        ["campaign", "run", "--dir", "unused-ledger", "--trials", "0"],
        ["campaign", "resume", "--dir", "unused-ledger", "--batch", "0"],
        ["flood", "--trials", "0"],
        ["flood", "--vehicles", "0"],
        ["flood", "--flooders", "0"],
    ],
    ids=" ".join,
)
def test_cli_count_flags_reject_non_positive_values(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    flag, value = argv[-2:]
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {flag}: must be at least 1, got {value}"
    )


# ----------------------------------------------------------------------
# Ablations A-C
# ----------------------------------------------------------------------
def test_ablation_a_who_catches_which_attacker():
    detected_by = {row.scenario: row.detected_by for row in run_baseline_comparison()}
    assert all(detected_by["multi-replier"].values())
    assert detected_by["single-replier"]["blackdp"]
    assert not detected_by["single-replier"]["jaiswal-compare"]
    for scenario, only in (
        ("modest-seq", "blackdp"),
        ("cooperative-teammate", "blackdp(teammate)"),
    ):
        assert [m for m, hit in detected_by[scenario].items() if hit] == [only]


def test_ablation_b_fake_destination_probe_spares_honest_cachers():
    result = run_probe_ablation()
    assert (result.naive_true_positives, result.naive_false_positives) == (3, 5)
    assert (result.blackdp_true_positives, result.blackdp_false_positives) == (3, 0)


def test_ablation_c_detection_cost_independent_of_density():
    rows = run_overhead_sweep(densities=(25, 50, 100, 200))
    assert [row.vehicles for row in rows] == [25, 50, 100, 200]
    assert [row.detection_packets for row in rows] == [6, 6, 6, 6]
    assert all(row.detection_latency < 5.0 for row in rows)
