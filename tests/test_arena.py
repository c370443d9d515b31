"""Tests for the adversary–detector arena: registry, pins, golden trace,
matrix determinism, and cache-schema hygiene.

The behavioural pins encode which detector catches which attacker — the
arena's headline claims:

- the wormhole pair defeats the paper's examiner (the exit end cannot
  confirm fabricated probe destinations) but is caught by the DRI
  cross-check;
- the adaptive probe-aware attacker evades the naive single-probe
  detector and the sequence-ratio baseline, yet the examiner's
  same-alias two-probe protocol still traps it;
- the sybil pseudonym corroborations defeat the sequence-ratio test
  that catches a lone black hole.

All pins run in 20-vehicle worlds (the repo-wide fast-test convention)
and were cross-checked against paper-scale runs.
"""

import dataclasses
import json
import re

import pytest

from repro.arena import (
    ArenaConfig,
    DEFAULT_DETECTORS,
    aggregate_matrix,
    arena_csv,
    arena_spec,
    available_detectors,
    cell_configs,
    expand_arena_spec,
    format_matrix,
    run_matrix,
)
from repro.experiments.config import TableIConfig, TrialConfig
from repro.experiments.executor import (
    CACHE_SCHEMA,
    ResultCache,
    summarize_trial,
    trial_cache_key,
)
from repro.experiments.trial import begin_trial, run_trial
from repro.obs import DETECTION_KINDS, TraceCollector

#: Small world so each trial costs milliseconds, not a minute.
SMALL = TableIConfig(num_vehicles=20)

#: Every live adapter in passive mode plus the examiner pipeline — the
#: configuration that must not perturb the simulation at all.
PASSIVE = ArenaConfig(
    detectors=("examiner", "sequence", "peak", "static", "trust", "dri"),
    convict=False,
)


def arena_config(attack: str, detector: str, *, seed: int = 11, **kwargs):
    """One arena trial as the matrix runs it: detection-kinds capture."""
    return TrialConfig(
        seed=seed,
        attack=attack,
        attacker_cluster=5,
        table=SMALL,
        arena=ArenaConfig(detectors=(detector,), **kwargs),
        trace=DETECTION_KINDS,
    )


def arena_trial(attack: str, detector: str, *, seed: int = 11, **kwargs):
    return run_trial(arena_config(attack, detector, seed=seed, **kwargs))


# ----------------------------------------------------------------------
# Registry and config validation
# ----------------------------------------------------------------------


def test_registry_lists_full_roster():
    roster = available_detectors()
    assert roster == tuple(sorted(roster))
    assert set(DEFAULT_DETECTORS) <= set(roster)


def test_arena_config_requires_a_detector():
    with pytest.raises(ValueError):
        ArenaConfig(detectors=())


def test_unknown_detector_rejected_at_install():
    config = TrialConfig(
        seed=1, attack="single", attacker_cluster=5, table=SMALL,
        arena=ArenaConfig(detectors=("nonesuch",)),
    )
    with pytest.raises(ValueError, match="nonesuch"):
        run_trial(config)


# ----------------------------------------------------------------------
# Behavioural pins: who catches whom
# ----------------------------------------------------------------------


def test_wormhole_caught_by_dri_cross_check():
    result = arena_trial("wormhole", "dri")
    assert result.attack_present
    assert result.detected
    assert not result.false_positive
    assert result.convicted_addresses & result.attacker_addresses


def test_wormhole_defeats_examiner():
    # The tunnel entry claims destinations its exit end can actually
    # reach only through fabrication; the examiner's probes go
    # unanswered in a way that looks like churn, not malice.
    result = arena_trial("wormhole", "examiner")
    assert result.attack_present
    assert not result.detected
    assert not result.false_positive


def test_adaptive_caught_by_examiner_two_probe():
    result = arena_trial("adaptive", "examiner")
    assert result.detected
    assert not result.false_positive


def test_adaptive_and_sybil_degrade_sequence_baseline():
    # Control: the lone aggressive black hole is exactly what the
    # sequence-ratio baseline was built for.
    control = arena_trial("single", "sequence")
    assert control.detected and not control.false_positive
    # The adaptive attacker caps its fake sequence boost under the
    # ratio; the sybil splits its claim across corroborating
    # pseudonyms.  Both walk straight past the same baseline.
    for attack in ("adaptive", "sybil"):
        result = arena_trial(attack, "sequence")
        assert result.attack_present
        assert not result.detected, f"{attack} should evade sequence"
        assert not result.false_positive


def test_single_black_hole_caught_by_threshold_and_trust():
    for detector in ("peak", "trust"):
        result = arena_trial("single", detector)
        assert result.detected, f"{detector} should catch the black hole"
        assert not result.false_positive


def test_flood_caught_by_sketch_monitors_only():
    # The RREQ flood never sends a route reply, so every reply-centric
    # detector is blind; the line-rate sketch monitors convict it.
    config = arena_config("flood", "sketch")
    result = run_trial(config)
    assert result.detected
    assert not result.false_positive
    # The conviction reads as a timeline: verdict, then isolation.
    assert result.trace_dropped == 0
    [timeline] = result.timelines
    assert timeline.suspect in result.attacker_addresses
    assert timeline.convicted and timeline.verdict == "rreq-flood"
    assert timeline.time_to_isolation is not None
    assert summarize_trial(config, result).time_to_isolation is not None


def test_naive_prober_convicts_honest_cachers():
    # The naive single-probe detector trusts any RREP answer — honest
    # nodes replying from route caches get convicted wholesale.  This
    # is the false-positive weakness the paper's examiner fixes.
    result = arena_trial("adaptive", "naive")
    assert result.false_positive
    assert len(result.convicted_addresses) > 2


# ----------------------------------------------------------------------
# Golden trace: passive adapters must not perturb the simulation
# ----------------------------------------------------------------------


def _normalized_trace(events):
    """Trace JSON with the process-global packet uids renumbered.

    Packet uids come from a module-level counter shared by every trial
    in the process; renumbering by first appearance (both the
    ``packet_uid`` field and ``uid:N`` references inside cause/detail)
    makes traces from different trials comparable byte for byte.
    """
    out = []
    remap = {}

    def renumber(uid):
        return remap.setdefault(int(uid), len(remap) + 1)

    for event in events:
        record = json.loads(event.to_json())
        if record["packet_uid"]:
            record["packet_uid"] = renumber(record["packet_uid"])
        for key in ("cause", "detail"):
            record[key] = re.sub(
                r"uid:(\d+)",
                lambda m: f"uid:{renumber(m.group(1))}",
                record[key],
            )
        out.append(json.dumps(record, sort_keys=True))
    return out


@pytest.mark.parametrize("attack", ["single", "wormhole", "sybil", "adaptive"])
def test_passive_arena_preserves_golden_trace(attack):
    plain = run_trial(
        TrialConfig(
            seed=11, attack=attack, attacker_cluster=5, table=SMALL, trace=True
        )
    )
    observed = run_trial(
        TrialConfig(
            seed=11, attack=attack, attacker_cluster=5, table=SMALL,
            trace=True, arena=PASSIVE,
        )
    )
    assert _normalized_trace(plain.trace_events) == _normalized_trace(
        observed.trace_events
    )


# ----------------------------------------------------------------------
# Detection-kinds capture: what the matrix records is all it reads
# ----------------------------------------------------------------------


#: Every e2e arena attack under the examiner pipeline and under an
#: arena adapter that opens a detection case, plus the flood under the
#: sketch monitors.
CAPTURE_CELLS = [
    (attack, detector)
    for attack in ("single", "cooperative", "grayhole", "wormhole", "sybil")
    for detector in ("examiner", "dri")
] + [("adaptive", "examiner"), ("adaptive", "trust"), ("flood", "sketch")]


@pytest.mark.parametrize("attack,detector", CAPTURE_CELLS)
def test_detection_capture_matches_full_capture(attack, detector, monkeypatch):
    [config] = cell_configs(attack, detector, base_seed=1, trials=1, num_vehicles=20)
    assert config.trace == DETECTION_KINDS
    if attack == "flood":
        # A full capture of the whole 40 s flood overflows the collector
        # (see test_trial_result_reports_trace_drops); 5 s still spans
        # the verdict and its propagation.
        config = dataclasses.replace(config, settle_time=5.0)
    full_config = dataclasses.replace(config, trace=True)
    full = run_trial(full_config)
    assert full.trace_dropped == 0

    kinds: list[str] = []
    emit = TraceCollector.emit

    def spy(self, node, kind, *args, **kwargs):
        kinds.append(kind)
        return emit(self, node, kind, *args, **kwargs)

    monkeypatch.setattr(TraceCollector, "emit", spy)
    narrow = run_trial(config)

    # every record a timeline reads is a detection kind ...
    suspect_kinds = {
        e.kind for e in full.trace_events if e.cause.startswith("suspect:")
    }
    assert suspect_kinds
    assert all(kind.startswith(DETECTION_KINDS) for kind in suspect_kinds)
    # ... so capturing only those changes nothing the arena reports
    assert narrow.timelines == full.timelines
    assert summarize_trial(config, narrow) == summarize_trial(full_config, full)
    assert _normalized_trace(narrow.trace_events) == _normalized_trace(
        e for e in full.trace_events if e.kind.startswith(DETECTION_KINDS)
    )
    # and the medium never calls into the collector
    assert kinds and not [kind for kind in kinds if kind.startswith("net.")]


def test_trial_result_reports_trace_drops():
    config = TrialConfig(
        seed=11, attack="single", attacker_cluster=5, table=SMALL, trace=True
    )
    session = begin_trial(config)
    trace = session.sim.obs.trace
    trace.capacity = len(trace.events) + 5
    truncated = session.finish()
    full = run_trial(config)
    assert full.trace_dropped == 0
    assert len(truncated.trace_events) == trace.capacity
    assert truncated.trace_dropped == len(full.trace_events) - trace.capacity
    # what the drop count warns about: the detection case fell off the end
    assert [t.convicted for t in full.timelines] == [True]
    assert truncated.timelines == []


def test_cli_trial_prints_trace_drops(tmp_path, capsys, monkeypatch):
    import repro.experiments.trial as trial_module
    from repro.experiments.__main__ import main as cli_main

    begin = trial_module.begin_trial

    def tiny_capacity(config):
        session = begin(config)
        trace = session.sim.obs.trace
        trace.capacity = len(trace.events) + 5
        return session

    monkeypatch.setattr(trial_module, "begin_trial", tiny_capacity)
    path = tmp_path / "run.jsonl"
    assert cli_main(["trial", "--seed", "1", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"trace: \d+ events dropped past capacity", out)


# ----------------------------------------------------------------------
# Matrix plumbing: spec expansion, aggregation, determinism
# ----------------------------------------------------------------------


def test_expand_arena_spec_order_and_shape():
    spec = arena_spec(
        attacks=("single", "wormhole"), detectors=("dri", "examiner"),
        trials=2, base_seed=7, num_vehicles=20,
    )
    configs = expand_arena_spec(spec)
    assert len(configs) == 8
    # Attack-major, then detector, then trial index.
    assert [c.attack for c in configs] == ["single"] * 4 + ["wormhole"] * 4
    assert [c.arena.detectors[0] for c in configs[:4]] == [
        "dri", "dri", "examiner", "examiner"
    ]
    assert all(c.trace for c in configs)
    assert all(c.table.num_vehicles == 20 for c in configs)
    # Seeds decorrelate across cells and trials.
    assert len({c.seed for c in configs}) == 8


def test_matrix_deterministic_and_resumable(tmp_path):
    kwargs = dict(
        attacks=("wormhole",), detectors=("dri",), trials=1,
        base_seed=1, num_vehicles=20,
    )
    _, first = run_matrix(tmp_path / "a", **kwargs)
    _, second = run_matrix(tmp_path / "b", **kwargs)
    assert arena_csv(first) == arena_csv(second)
    # Resuming a complete ledger re-renders from its cache for free.
    _, resumed = run_matrix(tmp_path / "a", **kwargs)
    assert resumed == first
    [cell] = first
    assert cell.detection_rate == 1.0
    assert cell.false_positive_rate == 0.0
    assert cell.median_time_to_isolation is not None
    assert cell.mean_overhead_packets > 0
    assert cell.mean_overhead_bytes > 0
    assert "wormhole" in format_matrix(first)


def test_aggregate_matrix_zips_unit_order(tmp_path):
    campaign, cells = run_matrix(
        tmp_path / "m", attacks=("wormhole", "adaptive"),
        detectors=("dri",), trials=1, base_seed=1, num_vehicles=20,
    )
    again = aggregate_matrix(campaign.manifest["spec"], campaign.results())
    assert again == cells
    assert [c.attack for c in cells] == ["wormhole", "adaptive"]
    assert all(cell.false_positive_rate == 0.0 for cell in cells)


# ----------------------------------------------------------------------
# Summary fields and cache-schema hygiene
# ----------------------------------------------------------------------


def test_summary_carries_arena_columns():
    config = TrialConfig(
        seed=11, attack="wormhole", attacker_cluster=5, table=SMALL,
        arena=ArenaConfig(detectors=("dri",)), trace=True,
    )
    summary = summarize_trial(config, run_trial(config))
    assert summary.detector == "dri"
    assert summary.detected
    assert summary.time_to_isolation is not None
    assert summary.overhead_packets > 0


def test_arena_config_distinguishes_cache_keys():
    base = TrialConfig(seed=1, attack="single", table=SMALL)
    arena = TrialConfig(
        seed=1, attack="single", table=SMALL,
        arena=ArenaConfig(detectors=("dri",)),
    )
    other = TrialConfig(
        seed=1, attack="single", table=SMALL,
        arena=ArenaConfig(detectors=("sequence",)),
    )
    keys = {trial_cache_key(base), trial_cache_key(arena), trial_cache_key(other)}
    assert len(keys) == 3


def test_cli_arena_smoke(tmp_path, capsys):
    from repro.experiments.__main__ import main as cli_main

    csv_path = tmp_path / "cells.csv"
    code = cli_main([
        "arena", "--smoke", "--dir", str(tmp_path / "ledger"),
        "--csv", str(csv_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "wormhole" in out and "adaptive" in out
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("attack,detector,trials,detection_rate")


def test_cli_arena_rejects_unknown_detector(capsys):
    from repro.experiments.__main__ import main as cli_main

    assert cli_main(["arena", "--detectors", "nonesuch"]) == 2
    assert "unknown detector" in capsys.readouterr().err


def test_stale_schema_records_are_skipped(tmp_path):
    config = TrialConfig(seed=11, attack="none", table=SMALL)
    key = trial_cache_key(config)
    summary = summarize_trial(config, run_trial(config))

    cache = ResultCache(tmp_path)
    cache.put(key, summary)
    shard = tmp_path / f"trials-{key[0]}.jsonl"
    record = json.loads(shard.read_text().strip())
    assert record["s"] == CACHE_SCHEMA

    # Rewrite the record as if a pre-arena build (schema 3) had written
    # it: the loader must skip it silently — stale, not corrupt.
    record["s"] = CACHE_SCHEMA - 1
    shard.write_text(json.dumps(record) + "\n")
    reloaded = ResultCache(tmp_path)
    assert reloaded.get(key) is None
    assert len(reloaded) == 0
    assert reloaded.corrupt_lines == 0
