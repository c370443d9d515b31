"""Campaign ledger: create/run/status/resume, kill-safety, and the
executor's interrupt/cache hardening underneath it."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.campaign import Campaign, CampaignError
from repro.experiments.executor import (
    ResultCache,
    TrialExecutor,
    TrialRunInterrupted,
    TrialSummary,
    append_jsonl_line,
)
from repro.experiments.figure4 import figure4_rows, run_figure4

SPEC = {
    "kind": "figure4",
    "trials": 2,
    "attacks": ["single"],
    "clusters": [1, 8],
    "base_seed": 77,
}


def test_create_run_status_results(tmp_path):
    campaign = Campaign.create(tmp_path / "c", name="small", spec=SPEC)
    assert campaign.status().total == 4
    assert not campaign.status().done

    status = campaign.run()
    assert status.done
    assert len(ResultCache(tmp_path / "c" / "cache")) == 4
    # The ledger is the manifest plus the result cache, nothing else.
    assert sorted(path.name for path in (tmp_path / "c").iterdir()) == [
        "cache",
        "manifest.json",
    ]

    # The cached summaries reproduce the direct sweep exactly.
    rows = figure4_rows(
        campaign.results(), trials=2, attacks=("single",), clusters=(1, 8)
    )
    direct = run_figure4(
        trials=2, attacks=("single",), clusters=(1, 8), base_seed=77
    )
    assert rows == direct


def test_reopen_skips_completed_units(tmp_path):
    directory = tmp_path / "c"
    Campaign.create(directory, name="small", spec=SPEC).run()

    reopened = Campaign.open(directory)
    assert reopened.status().done

    seen = []
    reopened.run(stream=seen.append)
    # Nothing left: no unit ran or was served, only the completion mark.
    assert [event.kind for event in seen] == ["campaign-done"]


def test_partial_cache_resumes_without_recompute(tmp_path, monkeypatch):
    directory = tmp_path / "c"
    campaign = Campaign.create(directory, name="small", spec=SPEC)
    campaign.run()

    # Keep only two cached lines — as if the run was killed.
    lines = []
    for shard in sorted((directory / "cache").glob("trials-*.jsonl")):
        lines.extend(shard.read_text().splitlines())
        shard.unlink()
    (directory / "cache" / "trials-0.jsonl").write_text(
        "\n".join(lines[:2]) + "\n"
    )

    resumed = Campaign.open(directory)
    assert resumed.status().completed == 2

    counted: list = []
    run_trials = TrialExecutor.run_trials

    def counting(self, configs):
        counted.extend(configs)
        return run_trials(self, configs)

    monkeypatch.setattr(TrialExecutor, "run_trials", counting)
    status = resumed.run()
    assert status.done
    assert len(counted) == 2  # only the truncated-away units re-ran


def test_truncated_cache_line_is_skipped_not_fatal(tmp_path):
    directory = tmp_path / "c"
    Campaign.create(directory, name="small", spec=SPEC).run()
    with (directory / "cache" / "trials-0.jsonl").open("a") as sink:
        sink.write('{"k": "tru')  # killed mid-append

    reopened = Campaign.open(directory)
    assert reopened.status().corrupt_lines == 1
    assert reopened.status().done  # the four valid lines still count


def test_create_refuses_existing_directory(tmp_path):
    Campaign.create(tmp_path / "c", name="one", spec=SPEC)
    with pytest.raises(CampaignError, match="already holds a campaign"):
        Campaign.create(tmp_path / "c", name="two", spec=SPEC)


def test_open_refuses_drifted_units(tmp_path):
    directory = tmp_path / "c"
    Campaign.create(directory, name="small", spec=SPEC)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["unit_keys"][0] = "0" * 64  # simulate a code/config change
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CampaignError, match="no longer match the manifest"):
        Campaign.open(directory)


def test_open_refuses_unknown_spec_kind(tmp_path):
    directory = tmp_path / "c"
    Campaign.create(directory, name="small", spec=SPEC)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["spec"]["kind"] = "figure99"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CampaignError, match="unknown campaign spec kind"):
        Campaign.open(directory)


# ----------------------------------------------------------------------
# Executor hardening underneath the campaign
# ----------------------------------------------------------------------
def test_cache_appends_survive_concurrent_style_interleaving(tmp_path):
    """Two cache instances sharing a directory (as two concurrent
    processes would) append whole lines; a reload sees both entries."""
    summary = TrialSummary(
        seed=1, attack="single", attacker_cluster=1, policy_name="aggressive",
        detected=True, false_positive=False, attack_impeded=True,
        detection_packets=9, convicted_attackers=1, convicted_honest=0,
    )
    first, second = ResultCache(tmp_path), ResultCache(tmp_path)
    first.put("a" * 64, summary)
    second.put("a" * 63 + "b", summary)
    reloaded = ResultCache(tmp_path)
    assert len(reloaded) == 2
    assert reloaded.corrupt_lines == 0


def test_append_jsonl_line_is_one_complete_line(tmp_path):
    path = tmp_path / "x.jsonl"
    for value in range(3):
        append_jsonl_line(path, {"v": value})
    assert [json.loads(line)["v"] for line in path.read_text().splitlines()] == [
        0,
        1,
        2,
    ]


def test_trial_run_interrupted_carries_partials():
    results = [None, object(), None, object()]
    interrupt = TrialRunInterrupted(results, total=4)
    assert interrupt.completed == 2
    assert interrupt.total == 4
    assert "2/4" in interrupt.summary()
    assert isinstance(interrupt, KeyboardInterrupt)


@pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt",
    reason="POSIX signal delivery",
)
def test_cli_campaign_sigint_then_resume(tmp_path):
    """Kill ``blackdp campaign run`` mid-flight; ``campaign resume``
    finishes from the ledger's cache without recomputing cached units."""
    directory = tmp_path / "camp"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments", "campaign", "run",
            "--dir", str(directory), "--trials", "4", "--attacks", "single",
            "--jobs", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # Wait for the first cached unit, then interrupt.
    cache = directory / "cache"
    for _ in range(600):
        if any(cache.glob("trials-*.jsonl")) or run.poll() is not None:
            break
        import time

        time.sleep(0.1)
    if run.poll() is None:
        run.send_signal(signal.SIGINT)
    output, _ = run.communicate(timeout=300)
    if run.returncode == 0:
        pytest.skip("campaign finished before the interrupt landed")
    assert run.returncode == 130, output
    assert "interrupted" in output

    completed = Campaign.open(directory).status().completed
    assert 0 < completed < 40

    resume = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments", "campaign", "resume",
            "--dir", str(directory), "--jobs", "1",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert resume.returncode == 0, resume.stdout + resume.stderr
    assert f"resuming: {completed}/40" in resume.stdout
    assert Campaign.open(directory).status().done
