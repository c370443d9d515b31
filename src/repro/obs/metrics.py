"""Metric instruments and the registry that owns them.

Three instrument families cover everything the reproduction measures at
runtime:

- :class:`MetricCounter` — monotonically increasing totals (packets
  sent, probes issued, convictions).
- :class:`MetricGauge` — last-value-wins readings that also remember
  their high-water mark (queue depth, active cases).
- :class:`MetricHistogram` — bounded-reservoir samples with exact
  count/sum/min/max (latencies, packet sizes).

Instruments are *namespaced*: a dotted name plus optional labels, so the
net layer can keep one counter per packet kind
(``net.sent{kind=RouteRequest}``) and the AODV layer one per node
(``aodv.rreq_originated{node=veh-3}``) without coordinating.  Lookup is
one dict access on a ``(name, labels)`` tuple — cheap enough for hot
paths when metrics are enabled, and call sites are expected to skip the
call entirely when they are not (see :class:`repro.obs.Observability`).
"""

from __future__ import annotations

import random
import zlib
from typing import Iterator

#: Default seed material for registry-owned histogram reservoirs.
DEFAULT_RESERVOIR_SEED = 0x0B5

#: Label tuple type used as part of the registry key.
Labels = tuple[tuple[str, str], ...]


def _key(name: str, labels: dict[str, object]) -> tuple[str, Labels]:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def format_key(key: tuple[str, Labels]) -> str:
    """Render a registry key as ``name{k=v,...}`` (Prometheus-flavoured)."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricCounter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class MetricGauge:
    """A last-value instrument that remembers its high-water mark."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def pin(self, value: float, high_water: float) -> None:
        """Set the value and adopt an externally tracked peak.

        For instruments whose producer maintains the true maximum
        continuously (e.g. queue depth): deriving the peak from sampled
        ``set`` calls would make it depend on publish cadence, so the
        recorded high-water would change with how a run is segmented.
        """
        self.value = value
        if high_water > self.high_water:
            self.high_water = high_water


class MetricHistogram:
    """Exact count/sum/min/max plus a bounded reservoir of samples.

    The reservoir uses Vitter's algorithm R so percentile estimates stay
    unbiased no matter how many observations arrive; memory is bounded
    by ``reservoir_size`` regardless of run length.
    """

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_size", "_rng")

    def __init__(self, reservoir_size: int = 512, *, rng: random.Random | None = None) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: list[float] = []
        self._size = reservoir_size
        # A dedicated RNG, never the process-global ``random`` module:
        # reservoir draws must not perturb (or be perturbed by) anything
        # else.
        self._rng = rng or random.Random(DEFAULT_RESERVOIR_SEED)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._size:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._size:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-quantile (``0 <= q <= 1``) from the reservoir."""
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
        }


class MetricsRegistry:
    """Owns every instrument created during one run.

    >>> registry = MetricsRegistry()
    >>> registry.counter("net.sent", kind="RouteRequest").inc()
    >>> registry.counter("net.sent", kind="RouteRequest").value
    1
    >>> registry.value("net.sent", kind="RouteRequest")
    1
    """

    def __init__(
        self, *, reservoir_size: int = 512, seed: int = DEFAULT_RESERVOIR_SEED
    ) -> None:
        self._counters: dict[tuple[str, Labels], MetricCounter] = {}
        self._gauges: dict[tuple[str, Labels], MetricGauge] = {}
        self._histograms: dict[tuple[str, Labels], MetricHistogram] = {}
        self._reservoir_size = reservoir_size
        self._seed = seed

    # ------------------------------------------------------------------
    # Instrument access (creating on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> MetricCounter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = MetricCounter()
        return instrument

    def gauge(self, name: str, **labels: object) -> MetricGauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = MetricGauge()
        return instrument

    def histogram(self, name: str, **labels: object) -> MetricHistogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            # Each histogram draws from its own RNG, seeded from the
            # registry seed and the instrument's rendered key: the
            # reservoir of one instrument is then independent of the
            # creation and observation order of every other, identical
            # across runs and processes.
            rng = random.Random(
                self._seed ^ zlib.crc32(format_key(key).encode())
            )
            instrument = self._histograms[key] = MetricHistogram(
                self._reservoir_size, rng=rng
            )
        return instrument

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> int | float:
        """Current value of a counter (0 if never incremented)."""
        counter = self._counters.get(_key(name, labels))
        return counter.value if counter is not None else 0

    def total(self, prefix: str) -> int | float:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(
            counter.value
            for (name, _), counter in self._counters.items()
            if name.startswith(prefix)
        )

    def counters(self, prefix: str = "") -> Iterator[tuple[str, int]]:
        """``(rendered name, value)`` pairs, optionally prefix-filtered."""
        for key, counter in sorted(self._counters.items()):
            if key[0].startswith(prefix):
                yield format_key(key), counter.value

    def snapshot(self) -> dict[str, object]:
        """Flat, JSON-serialisable dump of every instrument."""
        out: dict[str, object] = {}
        for key, counter in sorted(self._counters.items()):
            out[format_key(key)] = counter.value
        for key, gauge in sorted(self._gauges.items()):
            out[format_key(key)] = {"value": gauge.value, "high_water": gauge.high_water}
        for key, histogram in sorted(self._histograms.items()):
            out[format_key(key)] = histogram.summary()
        return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
