"""JSON scenario files: declarative trial configuration.

A scenario file describes a batch of trials without code::

    {
      "name": "evasive cluster 9",
      "attack": "single",
      "attacker_cluster": 9,
      "trials": 25,
      "seed": 500,
      "vehicles": 60,
      "policy": {"respond_probability": 1.0, "flee_after_replies": 1},
      "blackdp": {"probe_timeout": 1.0, "inter_probe_delay": 0.5}
    }

``policy`` and ``blackdp`` accept the keyword fields of
:class:`~repro.attacks.policy.AttackerPolicy` and
:class:`~repro.core.config.BlackDpConfig`; ``policy`` may instead be one
of the named presets (``"aggressive"``, ``"act-legit"``,
``"hit-and-run"``, ``"identity-changer"``).  Unknown keys are rejected
loudly — a typo in a threshold should never silently run the defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.attacks.flood import FloodPolicy
from repro.attacks.policy import AttackerPolicy
from repro.core.config import BlackDpConfig
from repro.experiments.config import ATTACK_TYPES, TableIConfig, TrialConfig
from repro.sketch import SketchConfig
from repro.experiments.executor import TrialExecutor, TrialSummary
from repro.metrics import wilson_interval

_POLICY_PRESETS = {
    "aggressive": AttackerPolicy.aggressive,
    "act-legit": AttackerPolicy.act_legitimately,
    "hit-and-run": AttackerPolicy.hit_and_run,
    "identity-changer": AttackerPolicy.identity_changer,
}


class ScenarioError(ValueError):
    """Raised for malformed scenario files."""


@dataclass
class Scenario:
    """A parsed scenario: one treatment, ``trials`` repetitions."""

    name: str
    attack: str
    attacker_cluster: int
    trials: int
    seed: int
    table: TableIConfig
    policy: AttackerPolicy | None
    blackdp: BlackDpConfig
    flood: FloodPolicy | None = None
    sketch: SketchConfig | None = None
    num_flooders: int = 1

    def trial_config(self, index: int) -> TrialConfig:
        return TrialConfig(
            seed=self.seed + index,
            attack=self.attack,
            attacker_cluster=self.attacker_cluster,
            table=self.table,
            blackdp=self.blackdp,
            policy=self.policy,
            flood=self.flood,
            sketch=self.sketch,
            num_flooders=self.num_flooders,
        )


@dataclass
class ScenarioOutcome:
    """Aggregated results of one scenario run."""

    scenario: Scenario
    results: list[TrialSummary] = field(default_factory=list)

    @property
    def detected(self) -> int:
        return sum(1 for r in self.results if r.detected)

    @property
    def false_positives(self) -> int:
        return sum(1 for r in self.results if r.false_positive)

    @property
    def impeded(self) -> int:
        return sum(1 for r in self.results if r.attack_impeded)

    def summary(self) -> str:
        n = len(self.results)
        lines = [f"scenario: {self.scenario.name} ({n} trials)"]
        if self.scenario.attack != "none":
            detection = wilson_interval(self.detected, n)
            lines.append(f"  detection rate : {detection}")
            lines.append(f"  attacks impeded: {self.impeded}/{n}")
        lines.append(f"  false positives: {self.false_positives}")
        packets = [
            r.detection_packets for r in self.results
            if r.detection_packets is not None
        ]
        if packets:
            lines.append(
                f"  detection packets: min {min(packets)} max {max(packets)}"
            )
        return "\n".join(lines)


def _build_dataclass(cls, payload: dict, *, context: str):
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - valid
    if unknown:
        raise ScenarioError(
            f"unknown {context} keys: {sorted(unknown)} "
            f"(valid: {sorted(valid)})"
        )
    try:
        return cls(**payload)
    except (TypeError, ValueError) as error:
        raise ScenarioError(f"invalid {context}: {error}") from error


def parse_scenario(payload: dict) -> Scenario:
    """Validate and build a :class:`Scenario` from decoded JSON."""
    if not isinstance(payload, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    known = {
        "name", "attack", "attacker_cluster", "trials", "seed", "vehicles",
        "policy", "blackdp", "flood", "sketch", "num_flooders",
    }
    unknown = set(payload) - known
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    attack = payload.get("attack", "single")
    if attack not in ATTACK_TYPES:
        raise ScenarioError(
            f"attack must be one of {ATTACK_TYPES}, got {attack!r}"
        )
    trials = int(payload.get("trials", 1))
    if trials < 1:
        raise ScenarioError("trials must be at least 1")
    table = TableIConfig(num_vehicles=int(payload.get("vehicles", 100)))
    policy_spec = payload.get("policy")
    policy = None
    if isinstance(policy_spec, str):
        preset = _POLICY_PRESETS.get(policy_spec)
        if preset is None:
            raise ScenarioError(
                f"unknown policy preset {policy_spec!r} "
                f"(valid: {sorted(_POLICY_PRESETS)})"
            )
        policy = preset()
    elif isinstance(policy_spec, dict):
        policy = _build_dataclass(AttackerPolicy, policy_spec, context="policy")
    elif policy_spec is not None:
        raise ScenarioError("policy must be a preset name or an object")
    blackdp_spec = payload.get("blackdp", {})
    if not isinstance(blackdp_spec, dict):
        raise ScenarioError("blackdp must be an object")
    blackdp = _build_dataclass(
        BlackDpConfig,
        {"inter_probe_delay": 0.5, **blackdp_spec},
        context="blackdp",
    )
    flood_spec = payload.get("flood")
    flood = None
    if isinstance(flood_spec, dict):
        flood = _build_dataclass(FloodPolicy, flood_spec, context="flood")
    elif flood_spec is not None:
        raise ScenarioError("flood must be an object of FloodPolicy fields")
    sketch_spec = payload.get("sketch")
    sketch = None
    if sketch_spec is True:
        sketch = SketchConfig()
    elif isinstance(sketch_spec, dict):
        sketch = _build_dataclass(SketchConfig, sketch_spec, context="sketch")
    elif sketch_spec not in (None, False):
        raise ScenarioError("sketch must be true or an object of SketchConfig fields")
    num_flooders = int(payload.get("num_flooders", 1))
    if num_flooders < 1:
        raise ScenarioError("num_flooders must be at least 1")
    return Scenario(
        name=str(payload.get("name", "unnamed scenario")),
        attack=attack,
        attacker_cluster=int(payload.get("attacker_cluster", 5)),
        trials=trials,
        seed=int(payload.get("seed", 0)),
        table=table,
        policy=policy,
        blackdp=blackdp,
        flood=flood,
        sketch=sketch,
        num_flooders=num_flooders,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ScenarioError(f"not valid JSON: {error}") from error
    return parse_scenario(payload)


def run_scenario(
    scenario: Scenario, *, parallel: TrialExecutor | None = None
) -> ScenarioOutcome:
    """Execute every trial of a scenario, optionally through an executor."""
    configs = [scenario.trial_config(index) for index in range(scenario.trials)]
    summaries = (parallel or TrialExecutor()).run_trials(configs)
    return ScenarioOutcome(scenario, results=summaries)
