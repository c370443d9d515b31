"""The RSU aggregate monitor: line-rate detection without per-flow state.

One ``AggregateMonitor`` attaches to an RSU's detection service and
listens promiscuously (the same ``Network.add_monitor`` tap the
infrastructure watchdog uses).  Every overheard transmission is folded
into bounded-size summaries:

- **per-origin RREQ rate** — fresh originations (``hop_count == 0``)
  into an epoch count-min sketch plus a space-saving heavy-hitter
  summary, the raw material for flood detection;
- **per-suspect drop ratio** — transit hand-offs to members vs their
  overheard onward transmissions, an aggregate approximation of the
  watchdog's per-obligation ledger (query-side evidence; the watchdog
  remains the convicting mechanism for gray holes);
- **hello-response latency** — SecureHello nonces matched to their
  HelloReply, count/sum sketches per responder.

Flood conviction follows DPRAODV (Raj & Swadas): the RREQ-rate
threshold is *dynamic*, an EWMA of the per-epoch baseline origination
rate (the median heavy-hitter rate, robust while flooders dominate the
top slots), scaled by a multiplier and clamped to a static floor and
ceiling.  An origin whose epoch rate exceeds the threshold after the
warm-up epochs is handed to ``DetectionService.convict_flooder`` and
isolated exactly like a probed black hole.

The monitor is passive: it never transmits, draws nothing from the
simulation RNG, and (while it convicts nobody) leaves the protocol
event stream byte-identical — pinned by the golden-trace test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.packets import HelloReply, SecureHello
from repro.routing.packets import DataPacket, RouteRequest
from repro.sketch.summaries import CountMinSketch, SpaceSavingSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.examiner import DetectionService

#: Verdict string for RREQ-flood convictions.
VERDICT_FLOODER = "rreq-flood"

#: Bound on the pending hello-nonce table (oldest evicted first).
_MAX_PENDING_HELLOS = 256


@dataclass(frozen=True)
class SketchConfig:
    """Aggregate-monitor tuning.

    Attributes
    ----------
    width, depth:
        Count-min sketch dimensions (per-row error ~ ``total/width``).
    heavy_hitter_capacity:
        Space-saving summary slots for per-epoch RREQ origins.
    epoch:
        Seconds per measurement epoch.
    warmup_epochs:
        Epochs observed before any conviction (baseline settles first).
    ewma_alpha:
        Weight of the newest epoch's baseline rate in the EWMA.
    threshold_multiplier:
        Dynamic threshold = multiplier x EWMA baseline rate.
    min_threshold, max_threshold:
        Static clamp (RREQ originations/sec) on the dynamic threshold:
        the floor keeps sparse-epoch noise from convicting, the ceiling
        keeps a flooder-polluted baseline from granting immunity.
    seed:
        Hash seed shared by every sketch (same-seed monitors merge).
    convict:
        When False the monitor only measures (no flood convictions).
    drop_ratio_threshold, min_drop_samples:
        Flag level and minimum hand-offs for ``suspected_droppers``.
    """

    width: int = 1024
    depth: int = 4
    heavy_hitter_capacity: int = 32
    epoch: float = 1.0
    warmup_epochs: int = 2
    ewma_alpha: float = 0.3
    threshold_multiplier: float = 4.0
    min_threshold: float = 12.0
    max_threshold: float = 25.0
    seed: int = 1
    convict: bool = True
    drop_ratio_threshold: float = 0.75
    min_drop_samples: int = 8

    def __post_init__(self) -> None:
        if self.width < 1 or self.depth < 1:
            raise ValueError("sketch dimensions must be at least 1")
        if self.heavy_hitter_capacity < 1:
            raise ValueError("heavy_hitter_capacity must be at least 1")
        if self.epoch <= 0:
            raise ValueError("epoch must be positive")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be non-negative")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.threshold_multiplier <= 0:
            raise ValueError("threshold_multiplier must be positive")
        if not 0.0 < self.min_threshold <= self.max_threshold:
            raise ValueError("need 0 < min_threshold <= max_threshold")


class AggregateMonitor:
    """Sketch-based aggregate observation attached to one RSU's
    detection service."""

    def __init__(
        self,
        service: "DetectionService",
        config: SketchConfig | None = None,
    ) -> None:
        self.service = service
        self.rsu = service.rsu
        self.config = config or SketchConfig()
        if self.rsu.network is None:
            raise RuntimeError("RSU must be attached before the monitor")
        cfg = self.config
        self.epoch_rreq = self._sketch()
        self.total_rreq = self._sketch()
        self.epoch_origins = SpaceSavingSummary(cfg.heavy_hitter_capacity)
        self.total_origins = SpaceSavingSummary(cfg.heavy_hitter_capacity)
        self.handoffs = self._sketch()
        self.forwards = self._sketch()
        self.hello_counts = self._sketch()
        self.hello_latency = self._sketch()
        self._pending_hellos: dict[int, float] = {}
        self.epochs = 0
        self.baseline_rate = 0.0
        self.threshold = cfg.min_threshold
        self.convicted: set[str] = set()
        self.conviction_order: list[str] = []
        self.packets_seen = 0
        self._stopped = False
        self.rsu.network.add_monitor(self.rsu, self._on_overhear)
        self._timer = self.rsu.sim.schedule(
            cfg.epoch, self._epoch_tick, label="sketch epoch", wheel=True
        )

    def _sketch(self) -> CountMinSketch:
        cfg = self.config
        return CountMinSketch(width=cfg.width, depth=cfg.depth, seed=cfg.seed)

    def stop(self) -> None:
        """Detach the radio tap and stop the epoch clock."""
        self._stopped = True
        if self.rsu.network is not None:
            self.rsu.network.remove_monitor(self.rsu, self._on_overhear)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # Observation: O(depth) sketch updates per overheard transmission
    # ------------------------------------------------------------------
    def _on_overhear(self, packet, sender: str, intended: str) -> None:
        if self._stopped:
            return
        self.packets_seen += 1
        if isinstance(packet, RouteRequest):
            if packet.hop_count == 0:
                # A fresh origination (rebroadcasts carry hop_count >= 1):
                # the per-origin rate is the flood signal, independent of
                # fleet density.
                self.epoch_rreq.add(packet.originator)
                self.epoch_origins.add(packet.originator)
        elif isinstance(packet, DataPacket):
            if (
                intended != packet.final_destination
                and self.rsu.membership.is_member(intended)
            ):
                self.handoffs.add(intended)
            if packet.hops_travelled >= 1 and self.rsu.membership.is_member(sender):
                self.forwards.add(sender)
        elif isinstance(packet, SecureHello):
            if len(self._pending_hellos) >= _MAX_PENDING_HELLOS:
                self._pending_hellos.pop(next(iter(self._pending_hellos)))
            self._pending_hellos[packet.nonce] = self.rsu.sim.now
        elif isinstance(packet, HelloReply):
            sent_at = self._pending_hellos.pop(packet.nonce, None)
            if sent_at is not None and packet.responder:
                self.hello_counts.add(packet.responder)
                self.hello_latency.add(packet.responder, self.rsu.sim.now - sent_at)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rreq_rate(self, origin: str) -> float:
        """Cumulative origination estimate for ``origin`` (count)."""
        return self.total_rreq.estimate(origin) + self.epoch_rreq.estimate(origin)

    def drop_ratio(self, member: str) -> float | None:
        """Approximate fraction of hand-offs with no overheard onward
        copy; ``None`` below the evidence floor."""
        handed = self.handoffs.estimate(member)
        if handed < self.config.min_drop_samples:
            return None
        forwarded = min(self.forwards.estimate(member), handed)
        return (handed - forwarded) / handed

    def suspected_droppers(self, candidates) -> list[str]:
        """Members of ``candidates`` whose drop ratio crosses the flag
        level — aggregate corroboration for watchdog evidence."""
        flagged = []
        for member in candidates:
            ratio = self.drop_ratio(member)
            if ratio is not None and ratio >= self.config.drop_ratio_threshold:
                flagged.append(member)
        return flagged

    def mean_hello_latency(self, responder: str) -> float | None:
        count = self.hello_counts.estimate(responder)
        if count <= 0:
            return None
        return self.hello_latency.estimate(responder) / count

    # ------------------------------------------------------------------
    # Epoch clock: dynamic threshold + conviction
    # ------------------------------------------------------------------
    def _epoch_tick(self) -> None:
        if self._stopped:
            return
        cfg = self.config
        self.epochs += 1
        items = self.epoch_origins.items()
        rates = sorted(count / cfg.epoch for _, count, _ in items)
        # DPRAODV-style dynamic threshold: EWMA of the baseline epoch
        # rate.  DPRAODV updates its threshold from *accepted* traffic
        # only, so a flooder cannot raise its own bar: drop the top
        # quarter of per-origin rates (the candidate flooders) and take
        # the median of the rest.  The clamp keeps an empty epoch from
        # zeroing the threshold and a polluted baseline from lifting it
        # past the static ceiling.
        trimmed = rates[: len(rates) - max(1, len(rates) // 4)] if rates else []
        baseline = _median(trimmed) if trimmed else 0.0
        if self.epochs == 1:
            self.baseline_rate = baseline
        else:
            alpha = cfg.ewma_alpha
            self.baseline_rate += alpha * (baseline - self.baseline_rate)
        dynamic = cfg.threshold_multiplier * self.baseline_rate
        self.threshold = min(cfg.max_threshold, max(cfg.min_threshold, dynamic))
        if cfg.convict and self.epochs > cfg.warmup_epochs:
            for origin, count, _error in items:
                if count / cfg.epoch > self.threshold:
                    self._convict(origin, count / cfg.epoch)
        # Epoch rotation: fold the epoch sketch into the cumulative one
        # (the merge path that also combines same-seed RSU monitors).
        self.total_rreq.merge(self.epoch_rreq)
        self.epoch_rreq.reset()
        self.total_origins.merge(self.epoch_origins)
        self.epoch_origins.reset()
        self._publish_gauges(len(items))
        self._timer = self.rsu.sim.schedule(
            cfg.epoch, self._epoch_tick, label="sketch epoch", wheel=True
        )

    def _convict(self, origin: str, rate: float) -> None:
        if origin in self.convicted:
            return
        if origin == self.rsu.address:
            return
        service = self.service
        if service.crl.is_revoked_id(origin):
            # Already isolated (possibly by a neighbouring CH's monitor);
            # remember it so the local summary stays quiet.
            self.convicted.add(origin)
            return
        self.convicted.add(origin)
        record = service.convict_flooder(
            origin,
            evidence=(
                f"rreq rate {rate:.1f}/s > dynamic threshold "
                f"{self.threshold:.1f}/s (epoch {self.epochs})"
            ),
        )
        if record is None:
            return
        self.conviction_order.append(origin)
        sim = self.rsu.sim
        if sim.obs.metrics is not None:
            sim.obs.metrics.counter(
                "sketch.convictions", cluster=self.rsu.cluster_index
            ).inc()

    def _publish_gauges(self, heavy_hitters: int) -> None:
        metrics = self.rsu.sim.obs.metrics
        if metrics is None:
            return
        cluster = self.rsu.cluster_index
        metrics.counter("sketch.epochs", cluster=cluster).inc()
        metrics.gauge("sketch.threshold", cluster=cluster).set(self.threshold)
        metrics.gauge("sketch.baseline_rate", cluster=cluster).set(self.baseline_rate)
        metrics.gauge("sketch.heavy_hitters", cluster=cluster).set(heavy_hitters)
        metrics.gauge("sketch.packets_seen", cluster=cluster).set(self.packets_seen)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def install_monitors(services, config: SketchConfig | None = None):
    """One ``AggregateMonitor`` per detection service (i.e. per RSU)."""
    config = config or SketchConfig()
    return [AggregateMonitor(service, config) for service in services]
