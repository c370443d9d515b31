"""Parallel trial execution with deterministic ordering and a result cache.

Every paper figure is a Monte Carlo sweep of *independent* seeded trials
(Figure 4 alone is 3,000 of them), and the drivers used to run them in a
serial Python loop.  :class:`TrialExecutor` fans those work units out
over a :class:`concurrent.futures.ProcessPoolExecutor` while keeping the
one property the reproduction cannot lose: **determinism**.

The contract
------------
- Work units are ``(TrialConfig, seed)`` pairs (the seed lives inside
  the config); each is simulated in isolation from a single root seed,
  so a trial's result does not depend on which process ran it or when.
- Results are re-assembled strictly in submission order, so
  ``jobs=N`` output is byte-identical to ``jobs=1`` output (enforced by
  ``tests/test_executor.py`` and the CI parallel smoke job).
- Units are chunked (``chunk_size``, auto by default) to amortise
  pickling and process round-trips.
- A worker crash fails only the chunks it held: each failed chunk is
  retried once in a fresh pool, then falls back to in-process
  execution, where a genuine (deterministic) exception surfaces with a
  clean traceback instead of a ``BrokenProcessPool``.
- With ``cache_dir`` set, results are stored content-addressed under a
  stable hash of the full ``TrialConfig`` (seed included) and of the
  ``repro`` sources; re-runs and report regeneration skip
  already-computed trials, and a code change misses instead of serving
  stale results (see ``docs/performance.md``).

Workers are warm-started by an initializer that pre-imports the trial
machinery and touches the Table I world configuration, so the first
unit of every worker does not pay the import/setup cost inside a
timed region.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.config import ATTACK_NONE, TrialConfig
from repro.experiments.progress import ProgressEvent

#: Bump when the summary fields or the canonical config encoding change;
#: old cache entries then miss instead of deserialising garbage.
#: 2: ChannelConfig gained ``batch_broadcast``.
#: 3: zero-allocation packet path landed.
#: 4: arena fields (``detector``, ``time_to_isolation``, overhead
#:    counters) joined :class:`TrialSummary`.
#: 5: ChannelConfig lost ``intern_wire``, ``batch_broadcast`` and
#:    ``spatial_index``.
CACHE_SCHEMA = 5

#: Shard count for the JSONL cache (single hex digit of the key).
_CACHE_SHARDS = 16


def append_jsonl_line(path: Path, record: dict) -> None:
    """Append one JSON record to ``path`` as a single atomic write.

    The line is serialized first and written with one ``os.write`` to an
    ``O_APPEND`` descriptor: POSIX appends position-then-write atomically,
    so concurrent writers (parallel sweeps sharing a cache directory, a
    campaign journal plus its executor) interleave at *line* granularity
    instead of corrupting each other mid-record.
    """
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


class TrialRunInterrupted(KeyboardInterrupt):
    """Ctrl-C landed during a sweep; completed work was preserved.

    Raised by :meth:`TrialExecutor.run_trials` instead of a bare
    ``KeyboardInterrupt``: every summary that finished before (or while
    draining) the interrupt has been flushed to the result cache, and
    :attr:`results` carries them in submission order with ``None`` holes
    for the units that never ran.  Subclassing ``KeyboardInterrupt``
    keeps the exception out of ``except Exception`` handlers, so it
    still unwinds like an interrupt unless a driver opts into partial
    results.
    """

    def __init__(self, results: list, total: int) -> None:
        super().__init__()
        self.results = results
        self.completed = sum(1 for r in results if r is not None)
        self.total = total

    def summary(self) -> str:
        return (
            f"interrupted: {self.completed}/{self.total} units finished "
            "(flushed to the result cache); re-run the same command to "
            "continue from there"
        )


# ----------------------------------------------------------------------
# Trial summaries: the picklable, JSON-round-trippable unit of result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSummary:
    """Everything the sweep drivers consume from one trial.

    A deliberate reduction of :class:`~repro.experiments.trial.TrialResult`:
    plain ints/bools/strings only, so it crosses process boundaries
    cheaply and round-trips through the JSONL cache without loss (the
    determinism contract compares these objects for equality).
    """

    seed: int
    attack: str
    attacker_cluster: int | None
    policy_name: str
    detected: bool
    false_positive: bool
    attack_impeded: bool
    detection_packets: int | None
    convicted_attackers: int
    convicted_honest: int
    #: virtual time of the first convicting verdict, or None; with the
    #: warm-up subtracted this is the sweep-facing time-to-detection
    first_conviction_at: float | None = None
    #: ``+``-joined arena detector roster of the trial ("" outside arena)
    detector: str = ""
    #: fastest suspicion→isolation span among convicted cases (needs
    #: ``trace``; None when nothing was convicted or tracing was off)
    time_to_isolation: float | None = None
    #: whole-trial radio + backbone transmissions (arena overhead column)
    overhead_packets: int = 0
    #: whole-trial radio bytes (0 unless the channel accounts bytes)
    overhead_bytes: int = 0

    @property
    def attack_present(self) -> bool:
        return self.attack != ATTACK_NONE

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrialSummary":
        return cls(**{f.name: payload[f.name] for f in dataclasses.fields(cls)})


def summarize_trial(config: TrialConfig, result) -> TrialSummary:
    """Reduce a full :class:`TrialResult` to its sweep-facing summary."""
    convicted = result.convicted_addresses
    return TrialSummary(
        seed=config.seed,
        attack=result.attack,
        attacker_cluster=result.attacker_cluster,
        policy_name=result.policy_name,
        detected=result.detected,
        false_positive=result.false_positive,
        attack_impeded=result.attack_impeded,
        detection_packets=result.detection_packets,
        convicted_attackers=len(convicted & result.attacker_addresses),
        convicted_honest=len(convicted & result.honest_addresses),
        first_conviction_at=min(
            (
                record.finished_at
                for record in result.records
                if record.suspect in convicted
            ),
            default=None,
        ),
        detector=(
            "+".join(config.arena.detectors) if config.arena is not None else ""
        ),
        time_to_isolation=min(result.isolation_delays, default=None),
        overhead_packets=result.net_packets,
        overhead_bytes=result.net_bytes,
    )


# ----------------------------------------------------------------------
# Content-addressed cache keys
# ----------------------------------------------------------------------
def _canonical(value) -> object:
    """JSON-encodable canonical form of a config fragment."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, float):
        return repr(value)  # repr round-trips; str() may lose precision
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)  # opaque policy objects: best-effort stable form


@functools.cache
def source_digest() -> str:
    """sha256 over the path and bytes of every ``repro`` source file.

    Computed on first use and memoized for the process, so runs that
    never build a cache key (no result cache, no campaign ledger) never
    read the sources.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def trial_cache_key(config: TrialConfig) -> str:
    """Stable content hash of one trial's full configuration + seed and
    of the simulation code (:func:`source_digest`).

    Observability switches are excluded: they do not alter the
    simulation outcome, and summaries never carry their payloads.
    """
    payload = _canonical(config)
    for obs_only in ("metrics", "trace", "profile", "sample_interval"):
        payload.pop(obs_only, None)
    payload["schema"] = CACHE_SCHEMA
    payload["code"] = source_digest()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Append-only JSONL store of trial summaries, sharded by key prefix.

    One line per result: ``{"k": <sha256>, "s": <schema>, "r": {...}}``.
    The loader is deliberately forgiving — a truncated or corrupt line
    (killed run, concurrent writer, disk hiccup) is *skipped and
    recomputed*, never fatal; the later re-append repairs the file.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.corrupt_lines = 0
        self._entries: dict[str, TrialSummary] = {}
        self._load()

    def _shard_path(self, key: str) -> Path:
        return self.directory / f"trials-{key[0]}.jsonl"

    def _load(self) -> None:
        for path in sorted(self.directory.glob("trials-*.jsonl")):
            try:
                text = path.read_text()
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if record.get("s") != CACHE_SCHEMA:
                        continue
                    self._entries[record["k"]] = TrialSummary.from_dict(
                        record["r"]
                    )
                except (ValueError, KeyError, TypeError):
                    self.corrupt_lines += 1  # skipped, recomputed, re-appended

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> TrialSummary | None:
        return self._entries.get(key)

    def put(self, key: str, summary: TrialSummary) -> None:
        if key in self._entries:
            return
        self._entries[key] = summary
        append_jsonl_line(
            self._shard_path(key),
            {"k": key, "s": CACHE_SCHEMA, "r": summary.to_dict()},
        )


# ----------------------------------------------------------------------
# Worker-side entry points (module-level so they pickle by reference)
# ----------------------------------------------------------------------
#: Worker-side progress channel: an ``mp.Queue`` (pool workers, set by
#: the warm-up initializer) or an :class:`_InlineProgressChannel`
#: (in-process runs).  ``None`` disables emission entirely — the single
#: cheap check streaming adds to the unstreamed trial path.
_progress_queue = None


class _InlineProgressChannel:
    """Queue-shaped shim that delivers straight to the parent's sink.

    In-process runs (``jobs=1``, inline fallback) have no worker/parent
    boundary, so the "queue" is a synchronous call.
    """

    __slots__ = ("_sink",)

    def __init__(self, sink) -> None:
        self._sink = sink

    def put_nowait(self, record: dict) -> None:
        self._sink(ProgressEvent.from_dict(record))


def _notify_progress(kind: str, **fields) -> None:
    """Emit one progress record from a worker, if streaming is on.

    Best-effort by design: a full/broken channel must never fail the
    trial it is narrating.
    """
    queue = _progress_queue
    if queue is None:
        return
    record = {"kind": kind, "worker": os.getpid(), "wall": time.time()}
    record.update(fields)
    try:
        queue.put_nowait(record)
    except Exception:
        pass


def _worker_warmup(progress_queue=None) -> None:
    """Pre-import the trial machinery and touch the Table I config so a
    worker's first unit does not pay setup cost.

    Workers also ignore SIGINT: a Ctrl-C in the parent then *drains* —
    in-flight chunks finish and are harvested — instead of killing the
    pool mid-trial and losing everything it was holding.

    ``progress_queue`` (always passed, possibly ``None``) becomes the
    worker's streaming channel; passing it through the initializer also
    *clears* any channel a forked worker inherited from the parent.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    global _progress_queue
    _progress_queue = progress_queue

    from repro.experiments.config import TableIConfig
    from repro.experiments import trial, world  # noqa: F401

    TableIConfig().make_highway()


def _run_trial_chunk(items):
    """Run ``[(index, TrialConfig), ...]``; returns worker accounting."""
    from repro.experiments.trial import run_trial

    started = time.perf_counter()
    out = []
    for index, config in items:
        _notify_progress("unit-start", unit=index, seed=config.seed)
        unit_started = time.perf_counter()
        summary = summarize_trial(config, run_trial(config))
        out.append((index, summary))
        _notify_progress(
            "unit-done",
            unit=index,
            seed=config.seed,
            elapsed=time.perf_counter() - unit_started,
            detected=summary.detected,
        )
    return os.getpid(), time.perf_counter() - started, out


def _run_call_chunk(items):
    """Run ``[(index, fn, args), ...]`` generic module-level callables."""
    started = time.perf_counter()
    out = []
    for index, fn, args in items:
        out.append((index, fn(*args)))
    return os.getpid(), time.perf_counter() - started, out


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class ExecutorStats:
    """Accounting for one executor's lifetime (all batches)."""

    trials: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    chunks: int = 0
    chunk_retries: int = 0
    inline_fallbacks: int = 0
    wall_seconds: float = 0.0
    #: pid -> busy seconds, for the per-worker utilization gauge
    worker_busy: dict[int, float] = field(default_factory=dict)

    @property
    def trials_per_sec(self) -> float:
        return self.trials / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def utilization(self) -> dict[int, float]:
        """Per-worker busy fraction of the executor's total wall time."""
        if self.wall_seconds <= 0:
            return {}
        return {
            pid: busy / self.wall_seconds
            for pid, busy in sorted(self.worker_busy.items())
        }

    def format(self) -> str:
        parts = [
            f"{self.trials} units in {self.wall_seconds:.2f}s "
            f"({self.trials_per_sec:.1f}/s)",
            f"cache {self.cache_hits} hit / {self.cache_misses} miss",
        ]
        if self.chunk_retries:
            parts.append(f"{self.chunk_retries} chunk retries")
        if self.inline_fallbacks:
            parts.append(f"{self.inline_fallbacks} in-process fallbacks")
        if self.worker_busy:
            busiest = ", ".join(
                f"pid {pid}: {fraction:.0%}"
                for pid, fraction in self.utilization().items()
            )
            parts.append(f"worker utilization {busiest}")
        return "; ".join(parts)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class TrialExecutor:
    """Deterministic fan-out of independent experiment work units.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (default) runs everything in the
        calling process — the reference path the parallel path must
        match byte-for-byte.
    cache_dir:
        Optional directory for the content-addressed result cache.
        Applies to seeded trials (:meth:`run_trials`); generic calls
        (:meth:`map_calls`) are never cached.
    chunk_size:
        Units per pool submission; ``0`` picks ``ceil(n / (jobs * 4))``
        so each worker sees ~4 chunks (pickling amortised, tail balanced).
    retries:
        How many times a failed chunk is re-submitted to a fresh pool
        before in-process fallback.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; the executor then
        maintains ``exec.*`` counters and per-worker utilization gauges.
    progress:
        Optional streaming sink — any callable taking a
        :class:`~repro.experiments.progress.ProgressEvent` (typically a
        :class:`~repro.experiments.progress.ProgressAggregator`).
        Workers then push per-unit start/completion events over a
        multiprocessing queue and the sink sees them *live*, not when
        the chunk returns.  Purely observational: result values and
        ordering are identical with or without a sink.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache_dir: str | Path | None = None,
        chunk_size: int = 0,
        retries: int = 1,
        metrics=None,
        progress=None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size < 0 or retries < 0:
            raise ValueError("chunk_size and retries must be non-negative")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.retries = retries
        self.metrics = metrics
        self.progress = progress
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_trials(self, configs: Sequence[TrialConfig]) -> list[TrialSummary]:
        """Run seeded trials; results in submission order, cache applied."""
        started = time.perf_counter()
        results: list[TrialSummary | None] = [None] * len(configs)
        pending: list[tuple[int, TrialConfig]] = []
        for index, config in enumerate(configs):
            cached = None
            if self.cache is not None:
                cached = self.cache.get(trial_cache_key(config))
            if cached is not None:
                results[index] = cached
                self.stats.cache_hits += 1
                if self.progress is not None:
                    self.progress(
                        ProgressEvent(
                            kind="unit-done",
                            unit=index,
                            seed=config.seed,
                            worker=os.getpid(),
                            wall=time.time(),
                            cached=True,
                            detected=cached.detected,
                        )
                    )
            else:
                pending.append((index, config))
                if self.cache is not None:
                    self.stats.cache_misses += 1
        collected: list = []
        try:
            self._execute(pending, _run_trial_chunk, out=collected)
        except KeyboardInterrupt:
            # Flush the chunks that did finish before unwinding, then
            # surface a partial-result summary instead of a traceback.
            for index, summary in collected:
                results[index] = summary
                if self.cache is not None:
                    self.cache.put(trial_cache_key(configs[index]), summary)
            self._account(len(configs), time.perf_counter() - started)
            raise TrialRunInterrupted(results, total=len(configs)) from None
        for index, summary in collected:
            results[index] = summary
            if self.cache is not None:
                self.cache.put(trial_cache_key(configs[index]), summary)
        self._account(len(configs), time.perf_counter() - started)
        return results  # type: ignore[return-value]

    def map_calls(
        self, calls: Sequence[tuple[Callable, tuple]]
    ) -> list:
        """Fan out generic ``(module-level fn, args)`` work units.

        Used by the bespoke drivers (Figure 5 scenarios, ablation
        sweeps, PDR cells) whose units are not seeded ``TrialConfig``
        trials.  Results come back in submission order; no caching.
        """
        started = time.perf_counter()
        items = [(index, fn, args) for index, (fn, args) in enumerate(calls)]
        results: list = [None] * len(calls)
        for index, value in self._execute(items, _run_call_chunk):
            results[index] = value
        self._account(len(calls), time.perf_counter() - started)
        return results

    def map(self, fn: Callable, argtuples: Sequence[tuple]) -> list:
        """Convenience: :meth:`map_calls` with one function."""
        return self.map_calls([(fn, args) for args in argtuples])

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------
    def _execute(
        self, items: list, chunk_runner: Callable, out: list | None = None
    ) -> list:
        """Run work items, parallel when configured; returns the
        concatenated per-item results (order handled by callers via the
        embedded indices).

        ``out`` may be supplied by the caller: results are appended to
        it as chunks complete, so work that finished before an interrupt
        unwound the stack is still visible to the caller's handler.
        """
        if out is None:
            out = []
        if not items:
            return out
        if self.jobs == 1 or len(items) == 1:
            out.extend(self._run_inline(items, chunk_runner, fallback=False))
            return out
        chunks = self._chunk(items)
        self.stats.chunks += len(chunks)
        pending = chunks
        for attempt in range(self.retries + 1):
            if not pending:
                break
            if attempt > 0:
                self.stats.chunk_retries += len(pending)
            pending = self._run_pool(pending, chunk_runner, out)
        for chunk in pending:  # exhausted retries: surface errors inline
            self.stats.inline_fallbacks += 1
            out.extend(self._run_inline(chunk, chunk_runner, fallback=True))
        return out

    def _chunk(self, items: list) -> list[list]:
        size = self.chunk_size
        if size <= 0:
            size = max(1, -(-len(items) // (self.jobs * 4)))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _run_pool(
        self, chunks: list[list], chunk_runner: Callable, out: list
    ) -> list[list]:
        """One pool generation; returns the chunks that failed."""
        # Imported here, not at module load: serial runs never pay for
        # the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        failed: list[list] = []
        consumed: set = set()

        def _collect(future, chunk) -> None:
            try:
                pid, busy, chunk_out = future.result()
            except Exception:
                # Worker crash (BrokenProcessPool) or task error:
                # both retry, then fall back in-process where a real
                # exception reproduces with a usable traceback.
                failed.append(chunk)
            else:
                previous = self.stats.worker_busy.get(pid, 0.0)
                self.stats.worker_busy[pid] = previous + busy
                out.extend(chunk_out)

        queue, drainer = self._start_progress_drain()
        try:
            with ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_worker_warmup,
                initargs=(queue,),
            ) as pool:
                futures = {
                    pool.submit(chunk_runner, chunk): chunk for chunk in chunks
                }
                try:
                    for future in as_completed(futures):
                        consumed.add(future)
                        _collect(future, futures[future])
                except KeyboardInterrupt:
                    # Drain, don't discard: queued chunks are cancelled,
                    # in-flight chunks run to completion (workers ignore
                    # SIGINT) and their results are harvested before the
                    # interrupt continues unwinding.
                    for future in futures:
                        future.cancel()
                    pool.shutdown(wait=True)
                    for future, chunk in futures.items():
                        if future in consumed or future.cancelled():
                            continue
                        if future.done():
                            _collect(future, chunk)
                    raise
        finally:
            self._stop_progress_drain(queue, drainer)
        return failed

    def _start_progress_drain(self):
        """Spin up the parent-side queue drainer for one pool generation.

        Returns ``(queue, thread)`` — both ``None`` when no sink is
        attached, in which case workers see ``progress_queue=None`` and
        emission stays a single no-op check.
        """
        if self.progress is None:
            return None, None
        queue = _pool_context().Queue()

        def _drain() -> None:
            while True:
                record = queue.get()
                if record is None:
                    return
                try:
                    self.progress(ProgressEvent.from_dict(record))
                except Exception:
                    pass  # streaming is best-effort, never fails the run

        thread = threading.Thread(
            target=_drain, name="trial-progress-drain", daemon=True
        )
        thread.start()
        return queue, thread

    @staticmethod
    def _stop_progress_drain(queue, drainer) -> None:
        if queue is None:
            return
        try:
            queue.put(None)  # sentinel: drain what's buffered, then stop
            drainer.join(timeout=5.0)
        finally:
            queue.close()

    def _run_inline(
        self, items: list, chunk_runner: Callable, *, fallback: bool
    ) -> list:
        global _progress_queue
        saved = _progress_queue
        if self.progress is not None:
            _progress_queue = _InlineProgressChannel(self.progress)
        try:
            pid, busy, out = chunk_runner(items)
        finally:
            _progress_queue = saved
        if not fallback:
            # In-process runs still feed the utilization ledger so
            # ``jobs=1`` stats read sensibly (one worker, ~100% busy).
            previous = self.stats.worker_busy.get(pid, 0.0)
            self.stats.worker_busy[pid] = previous + busy
        return out

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _account(self, units: int, wall: float) -> None:
        self.stats.trials += units
        self.stats.wall_seconds += wall
        if self.metrics is None:
            return
        # Counters mirror the cumulative stats; stats only grow, so the
        # absolute sync preserves counter monotonicity.
        self.metrics.counter("exec.units").value = self.stats.trials
        self.metrics.counter("exec.cache.hits").value = self.stats.cache_hits
        self.metrics.counter("exec.cache.misses").value = self.stats.cache_misses
        self.metrics.counter("exec.chunk_retries").value = self.stats.chunk_retries
        self.metrics.counter("exec.inline_fallbacks").value = (
            self.stats.inline_fallbacks
        )
        self.metrics.gauge("exec.jobs").set(self.jobs)
        self.metrics.gauge("exec.trials_per_sec").set(self.stats.trials_per_sec)
        for pid, fraction in self.stats.utilization().items():
            self.metrics.gauge("exec.worker.utilization", worker=pid).set(
                fraction
            )


def _pool_context():
    """Prefer ``fork`` (cheap warm start: workers inherit the imported
    simulator) where available; the default context otherwise.

    ``multiprocessing`` is imported here, on first pool use, so serial
    runs never load it."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
