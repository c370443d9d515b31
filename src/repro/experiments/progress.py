"""Streaming campaign/executor progress: heartbeats, ledger feed, live view.

Without it a sweep is a black box between "started" and "done".  This
module is the streaming layer on top of the
:class:`~repro.experiments.executor.TrialExecutor` and
:class:`~repro.experiments.campaign.Campaign`:

- Workers push a :class:`ProgressEvent` per work unit (start and
  completion) over a multiprocessing queue; the parent drains them as
  they happen instead of waiting for the chunk to return.
- A :class:`ProgressAggregator` folds the events into live aggregates
  (units done, recent rate, per-worker activity), mirrors them into
  ``exec.progress.*`` metrics when a registry is attached, and appends
  every event to an ``events.jsonl`` feed in the campaign ledger
  directory — the persistent, tail-able play-by-play of a sweep.
- :func:`load_ledger_view` / :func:`render_top` rebuild a live view of
  a ledger directory *purely from its files* (manifest, result cache,
  events feed), which is what ``blackdp top`` renders — it works from a
  different process, or long after the run finished.

Progress is a side channel: events never influence scheduling, result
order, or the determinism contract (``--jobs N`` output stays
byte-identical with streaming on or off).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

#: Bump when the events.jsonl record shape changes incompatibly.
PROGRESS_SCHEMA = 1

#: Completions folded into the "recent rate" estimate.
_RATE_WINDOW = 50


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed observation from a running sweep.

    ``kind`` is one of:

    - ``unit-start`` — a worker began simulating a unit (the heartbeat).
    - ``unit-done`` — a unit completed (``elapsed`` seconds of work);
      ``cached`` marks results served from the result cache without
      simulation.
    - ``campaign-done`` — every unit is cached (``done``/``total``).
    """

    kind: str
    #: submission index of the unit within its run (-1 for run-level events)
    unit: int = -1
    seed: int | None = None
    #: pid of the worker that produced the event
    worker: int = 0
    #: wall-clock seconds the unit took (unit-done only)
    elapsed: float = 0.0
    #: wall-clock timestamp (``time.time()``) the event was produced
    wall: float = 0.0
    cached: bool = False
    detected: bool | None = None
    done: int = 0
    total: int = 0

    def to_dict(self) -> dict:
        out = {k: v for k, v in asdict(self).items() if v not in (None, "")}
        out["s"] = PROGRESS_SCHEMA
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ProgressEvent":
        fields = {
            "kind", "unit", "seed", "worker", "elapsed", "wall",
            "cached", "detected", "done", "total",
        }
        return cls(**{k: v for k, v in payload.items() if k in fields})


@dataclass
class WorkerActivity:
    """Per-worker aggregate maintained by the aggregator."""

    pid: int
    units: int = 0
    busy_seconds: float = 0.0
    last_seen: float = 0.0
    current_unit: int | None = None


class ProgressAggregator:
    """Folds streamed events into live aggregates, metrics and a feed.

    Thread-safe in the way the executor needs it: events arrive from
    one drainer thread (or inline from the caller); readers
    (:meth:`status_dict`, a metrics scrape) only see plain attribute
    reads of already-published values.
    """

    def __init__(
        self,
        *,
        total: int = 0,
        events_path: str | Path | None = None,
        metrics=None,
        listener: Callable[[ProgressEvent], None] | None = None,
    ) -> None:
        self.total = total
        self.events_path = Path(events_path) if events_path is not None else None
        self.metrics = metrics
        self.listener = listener
        self.done = 0
        self.cached = 0
        self.detected = 0
        self.started_wall = time.time()
        self.last_event: ProgressEvent | None = None
        self.workers: dict[int, WorkerActivity] = {}
        self._recent: list[float] = []  # completion wall times, rate window

    # ------------------------------------------------------------------
    # Sink
    # ------------------------------------------------------------------
    def __call__(self, event: ProgressEvent) -> None:
        self.last_event = event
        worker = self.workers.get(event.worker)
        if worker is None:
            worker = self.workers[event.worker] = WorkerActivity(event.worker)
        worker.last_seen = event.wall or time.time()
        if event.kind == "unit-start":
            worker.current_unit = event.unit
        elif event.kind == "unit-done":
            self.done += 1
            worker.units += 1
            worker.busy_seconds += event.elapsed
            if worker.current_unit == event.unit:
                worker.current_unit = None
            if event.cached:
                self.cached += 1
            if event.detected:
                self.detected += 1
            self._recent.append(event.wall or time.time())
            if len(self._recent) > _RATE_WINDOW:
                del self._recent[: -_RATE_WINDOW]
        elif event.kind == "campaign-done":
            if event.total:
                self.total = event.total
        if self.events_path is not None:
            from repro.experiments.executor import append_jsonl_line

            append_jsonl_line(self.events_path, event.to_dict())
        self._publish_metrics()
        if self.listener is not None:
            self.listener(event)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Recent completions per second (over the last rate window)."""
        if len(self._recent) < 2:
            return 0.0
        span = self._recent[-1] - self._recent[0]
        if span <= 0:
            return 0.0
        return (len(self._recent) - 1) / span

    @property
    def eta_seconds(self) -> float | None:
        if not self.total or self.done >= self.total or self.rate <= 0:
            return None
        return (self.total - self.done) / self.rate

    def status_dict(self) -> dict:
        """JSON-ready aggregate view (the ``/status`` payload)."""
        return {
            "done": self.done,
            "total": self.total,
            "cached": self.cached,
            "detected": self.detected,
            "rate_per_sec": round(self.rate, 3),
            "eta_seconds": (
                None if self.eta_seconds is None else round(self.eta_seconds, 1)
            ),
            "workers": {
                str(pid): {
                    "units": w.units,
                    "busy_seconds": round(w.busy_seconds, 3),
                    "current_unit": w.current_unit,
                }
                for pid, w in sorted(self.workers.items())
            },
        }

    def _publish_metrics(self) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge("exec.progress.done").set(self.done)
        self.metrics.gauge("exec.progress.total").set(self.total)
        self.metrics.gauge("exec.progress.rate").set(round(self.rate, 3))
        self.metrics.gauge("exec.progress.workers").set(len(self.workers))
        self.metrics.gauge("exec.progress.cached").set(self.cached)


# ----------------------------------------------------------------------
# Ledger-backed live view (``blackdp top`` / ``campaign run --watch``)
# ----------------------------------------------------------------------
@dataclass
class LedgerView:
    """Everything ``blackdp top`` shows, rebuilt purely from disk."""

    directory: str
    name: str = ""
    total: int = 0
    completed: int = 0
    events: int = 0
    done_events: int = 0
    rate: float = 0.0
    workers: dict[int, WorkerActivity] = field(default_factory=dict)
    last: ProgressEvent | None = None
    complete: bool = False

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 0.0

    @property
    def eta_seconds(self) -> float | None:
        if self.complete or not self.total or self.rate <= 0:
            return None
        return (self.total - self.completed) / self.rate


def _read_progress_events(path: Path) -> Iterable[ProgressEvent]:
    if not path.exists():
        return
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if record.get("s") != PROGRESS_SCHEMA:
                continue
            yield ProgressEvent.from_dict(record)
        except (ValueError, TypeError, KeyError):
            continue  # truncated tail or foreign line: skip


def load_ledger_view(directory: str | Path) -> LedgerView:
    """Rebuild the live view of a campaign ledger from its files alone."""
    directory = Path(directory)
    view = LedgerView(directory=str(directory))
    keys: list[str] = []
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
        view.name = manifest.get("name", "")
        view.total = int(manifest.get("total_units", 0))
        keys = manifest.get("unit_keys", [])
    except (OSError, ValueError):
        pass
    if keys and (directory / "cache").is_dir():
        # A unit is done when its manifest key is in the result cache.
        from repro.experiments.executor import ResultCache

        cache = ResultCache(directory / "cache")
        view.completed = sum(key in cache for key in keys)
    recent: list[float] = []
    for event in _read_progress_events(directory / "events.jsonl"):
        view.events += 1
        view.last = event
        worker = view.workers.get(event.worker)
        if worker is None:
            worker = view.workers[event.worker] = WorkerActivity(event.worker)
        worker.last_seen = max(worker.last_seen, event.wall)
        if event.kind == "unit-start":
            worker.current_unit = event.unit
        elif event.kind == "unit-done":
            view.done_events += 1
            worker.units += 1
            worker.busy_seconds += event.elapsed
            if worker.current_unit == event.unit:
                worker.current_unit = None
            recent.append(event.wall)
        elif event.kind == "campaign-done":
            view.complete = True
    # The cache is the source of truth for completion; the events feed
    # only streams (a crash may have lost its tail).
    view.complete = view.complete or (
        view.total > 0 and view.completed >= view.total
    )
    recent = recent[-_RATE_WINDOW:]
    if len(recent) >= 2 and recent[-1] > recent[0]:
        view.rate = (len(recent) - 1) / (recent[-1] - recent[0])
    return view


def _bar(fraction: float, width: int = 30) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_top(view: LedgerView, *, now: float | None = None) -> str:
    """The ``blackdp top`` screen for one ledger view."""
    now = time.time() if now is None else now
    state = "complete" if view.complete else "running"
    lines = [
        f"campaign {view.name!r} at {view.directory} [{state}]",
        f"  units    {view.completed}/{view.total}  "
        f"[{_bar(view.fraction)}] {view.fraction:6.1%}",
        f"  rate     {view.rate:.2f} units/s (recent)   "
        f"eta {_fmt_eta(view.eta_seconds)}",
        f"  events   {view.events} streamed, {view.done_events} completions",
    ]
    for pid, worker in sorted(view.workers.items()):
        if worker.units == 0 and worker.current_unit is None:
            continue  # parent process (campaign marks), not a trial worker
        age = max(0.0, now - worker.last_seen) if worker.last_seen else 0.0
        current = (
            f"unit {worker.current_unit}"
            if worker.current_unit is not None
            else "idle"
        )
        lines.append(
            f"  worker   pid {pid}: {worker.units} units, "
            f"{worker.busy_seconds:.1f}s busy, {current}, "
            f"last seen {age:.1f}s ago"
        )
    if view.last is not None and view.last.kind == "unit-done":
        last = view.last
        lines.append(
            f"  recent   unit {last.unit} seed={last.seed} "
            f"detected={last.detected} "
            f"{'cache' if last.cached else f'{last.elapsed:.2f}s'}"
        )
    return "\n".join(lines)


def progress_line(status) -> str:
    """One-line in-place progress renderer for ``--watch``.

    ``status`` is an aggregator :meth:`~ProgressAggregator.status_dict`
    payload (or any dict with the same keys).
    """
    done, total = status.get("done", 0), status.get("total", 0)
    rate = status.get("rate_per_sec", 0.0)
    eta = status.get("eta_seconds")
    workers = len(status.get("workers", {}))
    fraction = done / total if total else 0.0
    return (
        f"[{_bar(fraction, width=20)}] {done}/{total} units "
        f"({fraction:.1%}) · {rate:.2f}/s · {workers} workers · "
        f"eta {_fmt_eta(eta)}"
    )
