"""Smoke tests: every example script runs to completion in-process.

Each example's ``main()`` is executed with stdout captured; the test
asserts the narrative output contains its key result lines, so a
regression that silently breaks a story (not just crashes it) fails.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        del sys.modules[spec.name]
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "route verified: True (destination-reply)" in out
    assert "verdict from the cluster head: black-hole" in out
    assert "attacker can renew its certificate: False" in out


def test_single_blackhole_highway(capsys):
    out = run_example("single_blackhole_highway", capsys)
    assert "delivered 0" in out
    assert "black-hole in 7 packets" in out
    assert "retry after isolation: verified=True" in out


def test_cooperative_attack_campaign(capsys):
    out = run_example("cooperative_attack_campaign", capsys)
    assert "cooperative teammate identified: True" in out
    assert "B1 revoked: True" in out
    assert "B2 revoked: True" in out


def test_evasive_attacker(capsys):
    out = run_example("evasive_attacker", capsys)
    assert out.count("attack impeded anyway: True") == 4
    assert "detected/isolated: True" in out  # the aggressive contrast case


def test_baseline_comparison(capsys):
    out = run_example("baseline_comparison", capsys)
    assert "honest node framed by attacker votes: True" in out
    assert "still flagged after pseudonym renewal: False" in out


def test_urban_grid_detection(capsys):
    out = run_example("urban_grid_detection", capsys)
    assert "attacker detected and isolated: True" in out
    assert "false positives:                False" in out


def test_secure_neighbor_discovery(capsys):
    out = run_example("secure_neighbor_discovery", capsys)
    assert "alice trusts bob:  True" in out
    assert "teleport:  1" in out


def test_v2i_tunneling(capsys):
    out = run_example("v2i_tunneling", capsys)
    assert "V2I delivery: ['hello across 8 km']" in out
    assert "tunnelled_out=1" in out


def test_detection_sequence_diagram(capsys):
    out = run_example("detection_sequence_diagram", capsys)
    assert "verdict: black-hole, packets: 9" in out
    assert "d_req" in out and "fwd" in out and "warn*" in out
