"""Resumable experiment campaigns: a crash-safe run ledger.

A *campaign* is a long sweep (e.g. all 3,000 Figure 4 trials) recorded
on disk so that a killed or interrupted run can be picked up exactly
where it stopped — without recomputing anything that finished.  The
ledger lives in one directory:

``manifest.json``
    Written once at creation (atomically): schema, name, the *spec*
    that re-enumerates the work units, the unit count, and every unit's
    cache key.  Resume refuses a manifest whose keys no longer match
    the configs the spec expands to — that means the simulation code or
    config encoding changed, and silently mixing old and new results
    would corrupt the sweep.

``cache/``
    A standard :class:`~repro.experiments.executor.ResultCache`, the
    source of truth for "what is done": a unit is complete when its
    manifest key is cached.  The executor appends each summary as one
    ``O_APPEND`` write the moment the unit returns, so a kill can at
    worst truncate the final line — which the loader skips and the
    re-run repairs.

``events.jsonl``
    The optional streamed progress feed (see
    :meth:`Campaign.make_aggregator`).

Interrupts drain rather than discard: the executor harvests in-flight
chunks (workers ignore SIGINT) and caches them before the interrupt
continues unwinding.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import TrialConfig
from repro.experiments.executor import (
    ResultCache,
    TrialExecutor,
    TrialSummary,
    trial_cache_key,
)
from repro.experiments.progress import ProgressAggregator, ProgressEvent

#: Bump when the manifest shape changes incompatibly; stale ledgers are
#: then rejected instead of misread.
CAMPAIGN_SCHEMA = 1


class CampaignError(RuntimeError):
    """The campaign directory is missing, stale, or inconsistent."""


# ----------------------------------------------------------------------
# Spec kinds: how a manifest re-enumerates its work units
# ----------------------------------------------------------------------
def _expand_figure4(spec: dict) -> list[TrialConfig]:
    from repro.experiments.figure4 import figure4_configs

    return figure4_configs(
        trials=int(spec["trials"]),
        attacks=tuple(spec["attacks"]),
        clusters=tuple(int(c) for c in spec["clusters"]),
        base_seed=int(spec["base_seed"]),
    )


def _expand_arena(spec: dict) -> list[TrialConfig]:
    from repro.arena.matrix import expand_arena_spec

    return expand_arena_spec(spec)


#: kind -> expander(spec dict) -> list[TrialConfig]; manifests stay
#: plain data and name their kind.
_SPEC_KINDS = {"figure4": _expand_figure4, "arena": _expand_arena}


def expand_spec(spec: dict) -> list[TrialConfig]:
    kind = spec.get("kind")
    expand = _SPEC_KINDS.get(kind)
    if expand is None:
        raise CampaignError(
            f"unknown campaign spec kind {kind!r} "
            f"(known: {sorted(_SPEC_KINDS)})"
        )
    return expand(spec)


# ----------------------------------------------------------------------
# Ledger primitives
# ----------------------------------------------------------------------
def _write_atomic(path: Path, payload: dict) -> None:
    """Write JSON via a sibling temp file + ``os.replace`` so readers
    (and crashes) only ever see a complete document."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)


@dataclass(frozen=True)
class CampaignStatus:
    """What ``blackdp campaign status`` reports."""

    name: str
    directory: str
    total: int
    completed: int
    corrupt_lines: int

    @property
    def remaining(self) -> int:
        return self.total - self.completed

    @property
    def done(self) -> bool:
        return self.completed >= self.total

    def to_dict(self) -> dict:
        """JSON-ready form (``blackdp campaign status --json``)."""
        return {
            "name": self.name,
            "directory": self.directory,
            "total": self.total,
            "completed": self.completed,
            "remaining": self.remaining,
            "done": self.done,
            "corrupt_lines": self.corrupt_lines,
        }

    def format(self) -> str:
        state = "complete" if self.done else f"{self.remaining} remaining"
        parts = [
            f"campaign {self.name!r} at {self.directory}: "
            f"{self.completed}/{self.total} units ({state})"
        ]
        if self.corrupt_lines:
            parts.append(
                f"  {self.corrupt_lines} corrupt cache lines skipped "
                "(will be recomputed)"
            )
        return "\n".join(parts)


class Campaign:
    """One ledger directory; create once, run/resume any number of times."""

    def __init__(
        self, directory: str | Path, manifest: dict, configs: list[TrialConfig]
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.configs = configs
        self.cache = ResultCache(self.cache_dir)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, directory: str | Path, *, name: str, spec: dict
    ) -> "Campaign":
        """Initialise a new ledger directory from a known spec kind."""
        directory = Path(directory)
        if (directory / "manifest.json").exists():
            raise CampaignError(
                f"{directory} already holds a campaign; "
                "use resume (or pick a new directory)"
            )
        configs = expand_spec(spec)
        if not configs:
            raise CampaignError("campaign spec expands to zero work units")
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": CAMPAIGN_SCHEMA,
            "name": name,
            "spec": spec,
            "total_units": len(configs),
            "unit_keys": [trial_cache_key(config) for config in configs],
        }
        _write_atomic(directory / "manifest.json", manifest)
        return cls(directory, manifest, configs)

    @classmethod
    def open(cls, directory: str | Path) -> "Campaign":
        """Load an existing ledger, re-expanding and verifying its units."""
        directory = Path(directory)
        path = directory / "manifest.json"
        try:
            manifest = json.loads(path.read_text())
        except OSError as error:
            raise CampaignError(
                f"no campaign at {directory}: {error}"
            ) from error
        except ValueError as error:
            raise CampaignError(
                f"corrupt campaign manifest at {path}: {error}"
            ) from error
        if manifest.get("schema") != CAMPAIGN_SCHEMA:
            raise CampaignError(
                f"campaign schema {manifest.get('schema')!r} is not the "
                f"current {CAMPAIGN_SCHEMA}; re-create the campaign"
            )
        configs = expand_spec(manifest.get("spec", {}))
        keys = [trial_cache_key(config) for config in configs]
        if keys != manifest.get("unit_keys"):
            raise CampaignError(
                "campaign units no longer match the manifest (the "
                "simulation code or config encoding changed since the "
                "campaign was created); finish it with the original build "
                "or start a fresh campaign"
            )
        return cls(directory, manifest, configs)

    # ------------------------------------------------------------------
    # Ledger state
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def cache_dir(self) -> Path:
        return self.directory / "cache"

    def status(self) -> CampaignStatus:
        return CampaignStatus(
            name=self.name,
            directory=str(self.directory),
            total=len(self.configs),
            completed=sum(key in self.cache for key in self.manifest["unit_keys"]),
            corrupt_lines=self.cache.corrupt_lines,
        )

    @property
    def events_path(self) -> Path:
        """The streamed progress feed (``events.jsonl``) in this ledger."""
        return self.directory / "events.jsonl"

    def make_aggregator(self, *, metrics=None, listener=None) -> ProgressAggregator:
        """A streaming sink wired to this ledger's ``events.jsonl`` feed.

        Pass the result as ``run(stream=...)``: worker heartbeats and
        completions then append to the feed live (``blackdp top`` tails
        it), publish ``exec.progress.*`` gauges into ``metrics`` when
        given, and invoke ``listener`` per event (the ``--watch``
        renderer).
        """
        return ProgressAggregator(
            total=len(self.configs),
            events_path=self.events_path,
            metrics=metrics,
            listener=listener,
        )

    def results(self) -> list[TrialSummary]:
        """All summaries in unit order; raises unless complete."""
        summaries = [self.cache.get(key) for key in self.manifest["unit_keys"]]
        missing = sum(summary is None for summary in summaries)
        if missing:
            raise CampaignError(
                f"campaign {self.name!r} is incomplete "
                f"({len(summaries) - missing}/{len(summaries)} units)"
            )
        return summaries

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, *, jobs: int = 1, stream: ProgressAggregator | None = None
    ) -> CampaignStatus:
        """Run (or continue) the campaign until every unit is cached.

        Every pending unit goes to one
        :meth:`~repro.experiments.executor.TrialExecutor.run_trials` call
        that shares this ledger's cache, so each summary is on disk as
        soon as its unit returns.  A SIGINT drains in-flight work into
        the cache and re-raises as
        :class:`~repro.experiments.executor.TrialRunInterrupted`.

        ``stream`` (see :meth:`make_aggregator`) turns on live
        telemetry: the executor pushes per-unit worker events into it,
        and the campaign marks its completion in the feed.
        """
        executor = TrialExecutor(jobs=jobs, progress=stream)
        executor.cache = self.cache
        executor.run_trials(
            [
                config
                for key, config in zip(self.manifest["unit_keys"], self.configs)
                if key not in self.cache
            ]
        )
        status = self.status()
        if stream is not None:
            stream(
                ProgressEvent(
                    kind="campaign-done",
                    worker=os.getpid(),
                    wall=time.time(),
                    done=status.completed,
                    total=status.total,
                )
            )
        return status
