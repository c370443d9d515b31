"""Experiment configuration: the paper's Table I and per-trial settings."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.core.config import BlackDpConfig
from repro.mobility.highway import Highway
from repro.net import ChannelConfig

#: Attack types a trial can run.
ATTACK_NONE = "none"
ATTACK_SINGLE = "single"
ATTACK_COOPERATIVE = "cooperative"
ATTACK_FLOOD = "flood"
ATTACK_GRAYHOLE = "grayhole"
ATTACK_WORMHOLE = "wormhole"
ATTACK_SYBIL = "sybil"
ATTACK_ADAPTIVE = "adaptive"
ATTACK_TYPES = (
    ATTACK_NONE,
    ATTACK_SINGLE,
    ATTACK_COOPERATIVE,
    ATTACK_FLOOD,
    ATTACK_GRAYHOLE,
    ATTACK_WORMHOLE,
    ATTACK_SYBIL,
    ATTACK_ADAPTIVE,
)


def point_key(attack: str, cluster: int) -> int:
    """Stable per-point seed offset for a Monte Carlo sweep point.

    Decorrelates the seed ranges of different ``(attack, cluster)``
    points so trial ``i`` of one point never reuses the seed of trial
    ``i`` of another.  CRC32 (not ``hash()``) so the value is identical
    across processes and Python invocations — the executor's result
    cache and the drivers must agree on it.
    """
    return zlib.crc32(f"{attack}:{cluster}".encode()) % 100_000


def point_seed(base_seed: int, attack: str, cluster: int, trial_index: int) -> int:
    """Seed of trial ``trial_index`` at one sweep point.

    The single source of truth for Figure-4-style seed derivation; the
    drivers, the trial executor and the cache key all call this rather
    than keeping private copies of the formula.
    """
    return base_seed + point_key(attack, cluster) + trial_index


@dataclass(frozen=True)
class TableIConfig:
    """Simulation parameters exactly as the paper's Table I.

    | Parameter          | Value    |
    |--------------------|----------|
    | Vehicle speed      | 50-90 km |
    | #Vehicles          | 100      |
    | #RSUs (CHs)        | 10       |
    | Transmission range | 1000 m   |
    | Highway length     | 10 km    |
    | Highway width      | 200 m    |
    | Cluster length     | 1000 m   |
    """

    num_vehicles: int = 100
    transmission_range: float = 1000.0
    highway_length: float = 10_000.0
    highway_width: float = 200.0
    cluster_length: float = 1000.0
    speed_min_kmh: float = 50.0
    speed_max_kmh: float = 90.0
    #: clusters in which attackers may renew certificates and behave
    #: evasively (paper: "a set of clusters (e.g., cluster 8-10)")
    renewal_zone: tuple[int, ...] = (8, 9, 10)
    #: repetitions per experimental treatment (paper: 150)
    trials: int = 150

    def make_highway(self) -> Highway:
        return Highway(
            length=self.highway_length,
            width=self.highway_width,
            cluster_length=self.cluster_length,
        )

    @property
    def num_rsus(self) -> int:
        return self.make_highway().num_clusters

    def rows(self) -> list[tuple[str, str]]:
        """Table I as printable rows."""
        return [
            ("Vehicle speed", f"{self.speed_min_kmh:.0f}-{self.speed_max_kmh:.0f}km"),
            ("#Vehicles", str(self.num_vehicles)),
            ("#RSUs (CHs)", str(self.num_rsus)),
            ("Transmission range", f"{self.transmission_range:.0f}m"),
            ("Highway length", f"{self.highway_length / 1000:.0f}km"),
            ("Highway width", f"{self.highway_width:.0f}m"),
            ("Cluster length", f"{self.cluster_length:.0f}m"),
        ]


@dataclass
class TrialConfig:
    """One seeded trial of the detection experiment."""

    seed: int = 0
    attack: str = ATTACK_SINGLE
    attacker_cluster: int = 5
    table: TableIConfig = field(default_factory=TableIConfig)
    blackdp: BlackDpConfig = field(
        default_factory=lambda: BlackDpConfig(inter_probe_delay=0.5)
    )
    #: explicit attacker policy; None samples by zone (aggressive outside
    #: the renewal zone, evasive mix inside it)
    policy: object = None
    #: flood behaviour for ``attack="flood"`` trials; None uses the
    #: :class:`~repro.attacks.flood.FloodPolicy` defaults
    flood: object = None
    #: flooders placed in ``attacker_cluster`` for flood trials
    num_flooders: int = 1
    #: sketch-monitor configuration (:class:`repro.sketch.SketchConfig`);
    #: None leaves aggregate monitors off — the default, so the protocol
    #: event stream of existing scenarios is untouched
    sketch: object = None
    #: arena detector configuration (:class:`repro.arena.ArenaConfig`);
    #: None leaves arena detectors off — the default, keeping the trial's
    #: event stream identical to pre-arena behaviour
    arena: object = None
    #: how long to keep simulating after the verification outcome so the
    #: detection and isolation phases complete
    settle_time: float = 40.0
    warmup: float = 1.0
    #: observability switches (all off by default; see :mod:`repro.obs`)
    metrics: bool = False
    #: ``True`` captures every trace kind; a tuple of kind prefixes
    #: (e.g. :data:`repro.obs.DETECTION_KINDS`) captures only those
    trace: bool | tuple[str, ...] = False
    profile: bool = False
    #: sample the metrics registry into per-metric time series at this
    #: virtual-time cadence (seconds); 0 disables.  Implies ``metrics``.
    sample_interval: float = 0.0
    #: channel override (None = defaults): delays, jitter, loss, byte
    #: accounting and the neighbour index's guard band
    channel: ChannelConfig | None = None

    def __post_init__(self) -> None:
        if self.attack not in ATTACK_TYPES:
            raise ValueError(
                f"attack must be one of {ATTACK_TYPES}, got {self.attack!r}"
            )
        highway = self.table.make_highway()
        if not 1 <= self.attacker_cluster <= highway.num_clusters:
            raise ValueError(
                f"attacker_cluster must be in [1, {highway.num_clusters}]"
            )
        if self.num_flooders < 1:
            raise ValueError("num_flooders must be at least 1")
        if not isinstance(self.trace, (bool, tuple)):
            raise ValueError(
                f"trace must be a bool or a tuple of kind prefixes, "
                f"got {self.trace!r}"
            )
