"""OpenMetrics rendering and a stdlib-only live metrics endpoint.

Two halves:

- :func:`render_openmetrics` turns a :class:`~repro.obs.metrics.
  MetricsRegistry` into OpenMetrics text (the Prometheus exposition
  format): counters as ``<name>_total``, gauges as-is, histograms as
  summaries with reservoir quantiles, label values escaped per the spec,
  terminated by ``# EOF``.
- :func:`serve_metrics` starts a :class:`~repro.obs.server.MetricsServer`
  that serves that text from a background thread over plain
  ``http.server`` (no third-party dependency): ``GET /metrics`` for
  scrapers, ``/healthz`` for liveness probes, ``/status`` for a JSON
  view of whatever run-level status the owner publishes.  The server
  module is imported on the first call, so a run that never serves
  metrics never loads ``http.server`` (or the ``ssl`` it pulls in).

The server only ever *reads* — it draws no randomness and touches no
simulation state — so exposing it during a live run cannot perturb a
seeded trial.  The simulation thread keeps mutating the registry while
a scrape renders; instrument values are plain attributes (atomic loads
under the GIL) and a dictionary that grows mid-render is retried, so a
scrape sees a consistent-enough point-in-time view without any locking
on the hot path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import Labels, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - the server module loads on demand
    from repro.obs.server import MetricsServer

#: Quantiles rendered for each histogram summary.
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)

#: How many times a render is retried when the registry's instrument
#: dictionaries grow mid-iteration (new instruments appearing during a
#: scrape); each retry re-reads a fresh item list.
_RENDER_RETRIES = 4


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name onto the OpenMetrics grammar.

    ``[a-zA-Z_:][a-zA-Z0-9_:]*``: dots and dashes become underscores,
    any other illegal character does too, and a leading digit gains an
    underscore prefix.
    """
    out = []
    for ch in name:
        if ch.isalnum() or ch in "_:":
            out.append(ch)
        else:
            out.append("_")
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double-quote and newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{sanitize_metric_name(k)}="{escape_label_value(v)}"'
        for k, v in (*labels, *extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_openmetrics(registry: MetricsRegistry) -> str:
    """Render every instrument as OpenMetrics text (ending ``# EOF``)."""
    for _ in range(_RENDER_RETRIES):
        try:
            return _render_once(registry)
        except RuntimeError:
            # An instrument dict grew while we iterated (a live run being
            # scraped); re-read from a fresh item view.
            continue
    return _render_once(registry)


def _render_once(registry: MetricsRegistry) -> str:
    lines: list[str] = []

    # Group instruments by sanitized family name so each family gets
    # exactly one TYPE line, as the format requires.
    counters: dict[str, list[tuple[Labels, float]]] = {}
    for (name, labels), counter in sorted(registry._counters.items()):
        counters.setdefault(sanitize_metric_name(name), []).append(
            (labels, counter.value)
        )
    for family, rows in counters.items():
        lines.append(f"# TYPE {family} counter")
        for labels, value in rows:
            lines.append(
                f"{family}_total{_render_labels(labels)} {_format_value(value)}"
            )

    gauges: dict[str, list[tuple[Labels, float, float]]] = {}
    for (name, labels), gauge in sorted(registry._gauges.items()):
        gauges.setdefault(sanitize_metric_name(name), []).append(
            (labels, gauge.value, gauge.high_water)
        )
    for family, rows in gauges.items():
        lines.append(f"# TYPE {family} gauge")
        for labels, value, _ in rows:
            lines.append(f"{family}{_render_labels(labels)} {_format_value(value)}")
        lines.append(f"# TYPE {family}_high_water gauge")
        for labels, _, high_water in rows:
            lines.append(
                f"{family}_high_water{_render_labels(labels)} "
                f"{_format_value(high_water)}"
            )

    histograms: dict[str, list[tuple[Labels, object]]] = {}
    for (name, labels), histogram in sorted(registry._histograms.items()):
        histograms.setdefault(sanitize_metric_name(name), []).append(
            (labels, histogram)
        )
    for family, hrows in histograms.items():
        lines.append(f"# TYPE {family} summary")
        for labels, histogram in hrows:
            for q in SUMMARY_QUANTILES:
                quantile = (("quantile", f"{q}"),)
                lines.append(
                    f"{family}{_render_labels(labels, quantile)} "
                    f"{_format_value(histogram.percentile(q))}"
                )
            lines.append(
                f"{family}_count{_render_labels(labels)} "
                f"{_format_value(histogram.count)}"
            )
            lines.append(
                f"{family}_sum{_render_labels(labels)} "
                f"{_format_value(histogram.total)}"
            )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def serve_metrics(
    registry: MetricsRegistry,
    port: int,
    *,
    host: str = "127.0.0.1",
    status_fn: Callable[[], dict] | None = None,
) -> "MetricsServer":
    """Start a background ``/metrics`` endpoint; returns the server.

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    The caller owns shutdown: ``server.close()``.

    >>> registry = MetricsRegistry()
    >>> registry.counter("demo.requests").inc()
    >>> server = serve_metrics(registry, port=0)   # 0 = ephemeral port
    >>> server.port > 0
    True
    >>> server.close()
    """
    from repro.obs.server import MetricsServer

    server = MetricsServer(registry, (host, port), status_fn=status_fn)
    return server.start()
