"""Observability: metrics, structured tracing and run profiling.

Every :class:`~repro.sim.simulator.Simulator` carries an
:class:`Observability` hub at ``sim.obs``.  All three collectors are
**off by default** and cost one attribute load + ``None`` check per
instrumented call site until enabled, so the uninstrumented hot path is
unchanged:

    sim = Simulator(seed=1)
    metrics = sim.obs.enable_metrics()
    trace = sim.obs.enable_trace()
    profiler = sim.obs.enable_profiler()
    ... run ...
    metrics.snapshot()            # flat dict of every instrument
    trace.write_jsonl("run.jsonl")
    profiler.report().events_per_sec

Instrumented layers: ``repro.net`` (per-kind send/deliver/drop),
``repro.routing`` (RREQ/RREP/RERR/Hello and route churn), ``repro.core``
(verifications, probes, verdicts, revocations), ``repro.clusters``
(membership) and ``repro.crypto`` (issuance/revocation).  See
``docs/observability.md`` for the guide.
"""

from __future__ import annotations

from repro.obs.export import (
    MetricsServer,
    render_openmetrics,
    serve_metrics,
)
from repro.obs.metrics import (
    MetricCounter,
    MetricGauge,
    MetricHistogram,
    MetricsRegistry,
)
from repro.obs.profiler import LabelCost, ProfileReport, RunProfiler
from repro.obs.timeline import (
    CONVICTING_VERDICTS,
    DetectionTimeline,
    TimelineStats,
    format_timelines,
    reconstruct_timelines,
    timeline_stats,
)
from repro.obs.timeseries import MetricSeries, TimeSeriesRecorder
from repro.obs.trace import (
    TraceCollector,
    TraceEvent,
    TraceFilter,
    render_sequence,
)


class Observability:
    """Per-simulator hub holding the (optional) collectors.

    Call sites never create instruments when a collector is ``None``;
    ``enable_*`` is idempotent and returns the live collector so tests
    and CLIs can enable mid-run.
    """

    __slots__ = ("_simulator", "metrics", "trace", "profiler", "timeseries")

    def __init__(self, simulator) -> None:
        self._simulator = simulator
        self.metrics: MetricsRegistry | None = None
        self.trace: TraceCollector | None = None
        self.profiler: RunProfiler | None = None
        self.timeseries: TimeSeriesRecorder | None = None

    # ------------------------------------------------------------------
    # Switches
    # ------------------------------------------------------------------
    def enable_metrics(self, **kwargs) -> MetricsRegistry:
        if self.metrics is None:
            self.metrics = MetricsRegistry(**kwargs)
        return self.metrics

    def enable_trace(self, **kwargs) -> TraceCollector:
        if self.trace is None:
            self.trace = TraceCollector(self._simulator, **kwargs)
        return self.trace

    def enable_profiler(self, **kwargs) -> RunProfiler:
        if self.profiler is None:
            self.profiler = RunProfiler(**kwargs)
        return self.profiler

    def enable_timeseries(self, **kwargs) -> TimeSeriesRecorder:
        """Start sampling the metrics registry at a virtual-time cadence.

        Implies :meth:`enable_metrics` (there is nothing to sample
        otherwise); the recorder's first tick lands on the next
        interval-grid boundary.
        """
        if self.timeseries is None:
            self.enable_metrics()
            self.timeseries = TimeSeriesRecorder(
                self._simulator, **kwargs
            ).start()
        return self.timeseries

    def disable(self) -> None:
        """Detach every collector (existing data is discarded)."""
        self.metrics = None
        self.trace = None
        self.profiler = None
        if self.timeseries is not None:
            self.timeseries.stop()
        self.timeseries = None

    @property
    def enabled(self) -> bool:
        return (
            self.metrics is not None
            or self.trace is not None
            or self.profiler is not None
            or self.timeseries is not None
        )


__all__ = [
    "CONVICTING_VERDICTS",
    "DetectionTimeline",
    "LabelCost",
    "MetricCounter",
    "MetricGauge",
    "MetricHistogram",
    "MetricSeries",
    "MetricsRegistry",
    "MetricsServer",
    "Observability",
    "ProfileReport",
    "RunProfiler",
    "TimeSeriesRecorder",
    "TimelineStats",
    "TraceCollector",
    "TraceEvent",
    "TraceFilter",
    "format_timelines",
    "reconstruct_timelines",
    "render_openmetrics",
    "render_sequence",
    "serve_metrics",
    "timeline_stats",
]
