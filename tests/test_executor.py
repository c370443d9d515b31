"""Tests for the parallel trial executor: determinism, cache, failure paths."""

import json
import multiprocessing
import os
import zlib

import pytest

from repro.experiments.config import TableIConfig, TrialConfig, point_key, point_seed
from repro.experiments.executor import (
    CACHE_SCHEMA,
    ResultCache,
    TrialExecutor,
    TrialSummary,
    summarize_trial,
    trial_cache_key,
)
from repro.experiments.figure4 import accumulate_point, run_figure4
from repro.experiments.trial import run_trial
from repro.obs import MetricsRegistry

#: Small world so each trial costs milliseconds, not a tenth of a second.
SMALL = TableIConfig(num_vehicles=20)


def small_configs(count: int, *, attack: str = "single", cluster: int = 5):
    return [
        TrialConfig(
            seed=point_seed(1000, attack, cluster, index),
            attack=attack,
            attacker_cluster=cluster,
            table=SMALL,
        )
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# Worker payloads (module-level so they pickle by reference)
# ----------------------------------------------------------------------
def _double(value):
    return value * 2


def _crash_in_worker(value):
    """Dies only inside a pool worker; succeeds in the parent process."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return value * 2


def _raise_always(value):
    raise ValueError(f"deterministic failure on {value}")


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
def test_point_seed_matches_legacy_formula():
    # The original Figure 4 loop derived seeds inline with exactly this
    # expression; the shared helper must reproduce it so historical
    # results stay bit-identical.
    for attack, cluster, trial in [("single", 1, 0), ("cooperative", 10, 149)]:
        legacy = 1000 + zlib.crc32(f"{attack}:{cluster}".encode()) % 100_000 + trial
        assert point_seed(1000, attack, cluster, trial) == legacy


def test_point_key_is_stable_across_processes():
    # CRC32, not hash(): the value may not depend on PYTHONHASHSEED.
    assert point_key("single", 5) == zlib.crc32(b"single:5") % 100_000


# ----------------------------------------------------------------------
# Summaries and cache keys
# ----------------------------------------------------------------------
def test_trial_summary_json_roundtrip():
    summary = summarize_trial(small_configs(1)[0], run_trial(small_configs(1)[0]))
    decoded = TrialSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
    assert decoded == summary


def test_cache_key_stable_and_distinct():
    a, b = small_configs(2)
    assert trial_cache_key(a) == trial_cache_key(a)
    assert trial_cache_key(a) != trial_cache_key(b)
    other_attack = TrialConfig(
        seed=a.seed, attack="cooperative", attacker_cluster=5, table=SMALL
    )
    assert trial_cache_key(a) != trial_cache_key(other_attack)


def test_cache_key_covers_the_source_digest(monkeypatch):
    import repro.experiments.executor as executor_module

    config = small_configs(1)[0]
    assert len(executor_module.source_digest()) == 64
    assert executor_module.source_digest() is executor_module.source_digest()
    current = trial_cache_key(config)
    monkeypatch.setattr(executor_module, "source_digest", lambda: "0" * 64)
    assert trial_cache_key(config) != current


def test_cache_key_ignores_observability_switches():
    base = small_configs(1)[0]
    instrumented = TrialConfig(
        seed=base.seed,
        attack=base.attack,
        attacker_cluster=base.attacker_cluster,
        table=SMALL,
        metrics=True,
        profile=True,
    )
    assert trial_cache_key(base) == trial_cache_key(instrumented)


# ----------------------------------------------------------------------
# Determinism: serial reference and parallel equivalence
# ----------------------------------------------------------------------
def test_serial_executor_matches_direct_run_trial():
    configs = small_configs(3)
    direct = [summarize_trial(c, run_trial(c)) for c in configs]
    assert TrialExecutor(jobs=1).run_trials(configs) == direct


def test_parallel_results_identical_to_serial():
    configs = small_configs(6)
    serial = TrialExecutor(jobs=1).run_trials(configs)
    parallel = TrialExecutor(jobs=2, chunk_size=2).run_trials(configs)
    assert parallel == serial


def test_figure4_rows_identical_serial_parallel_and_cached(tmp_path):
    kwargs = dict(trials=3, attacks=("single",), clusters=(2, 9), table=SMALL)
    serial = run_figure4(**kwargs)
    assert run_figure4(parallel=TrialExecutor(jobs=2), **kwargs) == serial
    cold = TrialExecutor(jobs=2, cache_dir=tmp_path)
    assert run_figure4(parallel=cold, **kwargs) == serial
    warm = TrialExecutor(jobs=1, cache_dir=tmp_path)
    assert run_figure4(parallel=warm, **kwargs) == serial
    assert warm.stats.cache_hits == 6
    assert warm.stats.cache_misses == 0


def test_map_preserves_submission_order():
    executor = TrialExecutor(jobs=2, chunk_size=1)
    assert executor.map(_double, [(i,) for i in range(7)]) == [
        0, 2, 4, 6, 8, 10, 12,
    ]


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
def test_cache_round_trip_hits_and_equality(tmp_path):
    configs = small_configs(4)
    cold = TrialExecutor(jobs=1, cache_dir=tmp_path)
    cold_results = cold.run_trials(configs)
    assert cold.stats.cache_misses == 4
    warm = TrialExecutor(jobs=1, cache_dir=tmp_path)
    assert warm.run_trials(configs) == cold_results
    assert warm.stats.cache_hits == 4
    assert warm.stats.cache_misses == 0


def test_truncated_cache_line_skipped_not_fatal(tmp_path):
    configs = small_configs(2)
    TrialExecutor(jobs=1, cache_dir=tmp_path).run_trials(configs)
    # Mangle every shard: append garbage and truncate one real line, as
    # a killed run or disk hiccup would.
    for shard in tmp_path.glob("trials-*.jsonl"):
        lines = shard.read_text().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        lines.append("{not json at all")
        shard.write_text("\n".join(lines) + "\n")
    recovered = TrialExecutor(jobs=1, cache_dir=tmp_path)
    assert recovered.cache.corrupt_lines > 0
    results = recovered.run_trials(configs)
    assert results == [summarize_trial(c, run_trial(c)) for c in configs]
    # Damaged entries were recomputed, intact ones served from cache.
    assert recovered.stats.cache_hits + recovered.stats.cache_misses == 2
    assert recovered.stats.cache_misses >= 1


def test_cache_rejects_other_schema(tmp_path):
    cache = ResultCache(tmp_path)
    summary = summarize_trial(small_configs(1)[0], run_trial(small_configs(1)[0]))
    cache.put("ab" * 32, summary)
    path = tmp_path / "trials-a.jsonl"
    record = json.loads(path.read_text())
    record["s"] = CACHE_SCHEMA + 1
    path.write_text(json.dumps(record) + "\n")
    assert ResultCache(tmp_path).get("ab" * 32) is None


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
def test_worker_crash_retries_then_falls_back_inline():
    executor = TrialExecutor(jobs=2, chunk_size=1, retries=1)
    assert executor.map(_crash_in_worker, [(3,), (4,)]) == [6, 8]
    assert executor.stats.chunk_retries >= 1
    assert executor.stats.inline_fallbacks >= 1


def test_deterministic_exception_surfaces_from_fallback():
    executor = TrialExecutor(jobs=2, chunk_size=1, retries=0)
    with pytest.raises(ValueError, match="deterministic failure"):
        executor.map(_raise_always, [(1,)] * 2)


def test_executor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TrialExecutor(jobs=0)
    with pytest.raises(ValueError):
        TrialExecutor(jobs=1, retries=-1)


# ----------------------------------------------------------------------
# Figure 4 accounting (the FP double-count fix)
# ----------------------------------------------------------------------
def _summary(detected: bool, false_positive: bool) -> TrialSummary:
    return TrialSummary(
        seed=1,
        attack="single",
        attacker_cluster=5,
        policy_name="aggressive",
        detected=detected,
        false_positive=false_positive,
        attack_impeded=True,
        detection_packets=4,
        convicted_attackers=1 if detected else 0,
        convicted_honest=1 if false_positive else 0,
    )


def test_accumulate_point_one_matrix_entry_per_trial():
    # A trial that both detects the attacker AND convicts a bystander
    # used to be recorded twice, inflating the Wilson denominator.
    summaries = [_summary(True, True), _summary(True, False), _summary(False, False)]
    matrix, fp_trials = accumulate_point(summaries)
    assert matrix.total == len(summaries)
    assert (matrix.tp, matrix.fn) == (2, 1)
    assert fp_trials == 1


# ----------------------------------------------------------------------
# Metrics mirroring
# ----------------------------------------------------------------------
def test_executor_mirrors_stats_into_metrics(tmp_path):
    registry = MetricsRegistry()
    executor = TrialExecutor(jobs=1, cache_dir=tmp_path, metrics=registry)
    configs = small_configs(2)
    executor.run_trials(configs)
    executor.run_trials(configs)
    assert registry.counter("exec.units").value == 4
    assert registry.counter("exec.cache.hits").value == 2
    assert registry.counter("exec.cache.misses").value == 2
