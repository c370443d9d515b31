"""One seeded detection trial.

A trial reproduces the paper's experimental unit: a populated Table I
highway, a source car near the beginning, a destination chosen so the
attacker cannot have a genuine route to it, and (optionally) one single
or cooperative black hole whose placement and behaviour are dictated by
the treatment.  The source establishes a *verified* route; whatever
detection that triggers runs to completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks import AttackerPolicy, FloodPolicy
from repro.core.accounting import DetectionRecord
from repro.core.verifier import VerificationOutcome
from repro.obs import (
    CONVICTING_VERDICTS,
    DetectionTimeline,
    ProfileReport,
    TraceEvent,
    TraceFilter,
    reconstruct_timelines,
)
from repro.experiments.config import (
    ATTACK_ADAPTIVE,
    ATTACK_FLOOD,
    ATTACK_GRAYHOLE,
    ATTACK_NONE,
    ATTACK_SINGLE,
    ATTACK_SYBIL,
    ATTACK_WORMHOLE,
    TrialConfig,
)
from repro.experiments.world import World, build_world

__all__ = [
    "CONVICTING_VERDICTS",  # re-exported from repro.obs.timeline
    "TrialResult",
    "TrialSession",
    "begin_trial",
    "choose_destination_cluster",
    "run_trial",
    "sample_policy",
]


@dataclass
class TrialResult:
    """Everything Figure 4's classification needs from one trial."""

    attack: str
    attacker_cluster: int | None
    policy_name: str
    #: pseudonyms the attacker(s) used during the trial (incl. renewals)
    attacker_addresses: set[str] = field(default_factory=set)
    honest_addresses: set[str] = field(default_factory=set)
    outcome: VerificationOutcome | None = None
    records: list[DetectionRecord] = field(default_factory=list)
    #: populated when :attr:`TrialConfig.metrics` is set: a JSON-ready
    #: snapshot of every counter/gauge/histogram at the end of the run
    metrics: dict | None = None
    #: populated when :attr:`TrialConfig.trace` is set
    trace_events: list[TraceEvent] | None = None
    #: admitted trace records dropped past the collector's capacity;
    #: nonzero means :attr:`trace_events` and :attr:`timelines` are
    #: truncated
    trace_dropped: int = 0
    #: populated when :attr:`TrialConfig.profile` is set
    profile: ProfileReport | None = None
    #: populated when :attr:`TrialConfig.sample_interval` > 0: columnar
    #: ``{name: [value, ...]}`` time series, one value per sample tick;
    #: a series that appeared mid-run aligns with the *tail* of
    #: :attr:`series_times`
    series: dict | None = None
    #: sample-tick timestamps shared by every entry in :attr:`series`
    series_times: list | None = None
    #: populated when :attr:`TrialConfig.trace` is set: per-suspect
    #: detection narratives with time-to-detection/-isolation
    timelines: list[DetectionTimeline] | None = None
    #: total radio + backbone transmissions over the whole trial (the
    #: arena's overhead denominator)
    net_packets: int = 0
    #: radio bytes sent; 0 unless the channel accounts bytes
    #: (``ChannelConfig(account_bytes=True)``)
    net_bytes: int = 0

    # ------------------------------------------------------------------
    # Derived classifications
    # ------------------------------------------------------------------
    @property
    def attack_present(self) -> bool:
        return self.attack != ATTACK_NONE

    @property
    def convicted_addresses(self) -> set[str]:
        convicted: set[str] = set()
        for record in self.records:
            if record.verdict in CONVICTING_VERDICTS:
                convicted.add(record.suspect)
                convicted.update(record.cooperative_with)
        return convicted

    @property
    def detected(self) -> bool:
        """True when at least one attacker pseudonym was convicted."""
        return bool(self.convicted_addresses & self.attacker_addresses)

    @property
    def false_positive(self) -> bool:
        """True when any *honest* pseudonym was convicted."""
        return bool(self.convicted_addresses & self.honest_addresses)

    @property
    def attack_impeded(self) -> bool:
        """True when the source never committed data to an attacker route
        (the paper's prevention guarantee): either the route verified
        through an honest path, or verification refused the route."""
        if self.outcome is None:
            return True
        if not self.outcome.verified:
            return True
        route = self.outcome.route
        return route is None or route.next_hop not in self.attacker_addresses

    @property
    def detection_packets(self) -> int | None:
        """Packets of the (first) completed detection, Figure 5's metric."""
        return self.records[0].packets if self.records else None

    @property
    def detection_delays(self) -> list[float]:
        """Time-to-detection of every convicted case (needs ``trace``)."""
        if not self.timelines:
            return []
        return [
            t.time_to_detection
            for t in self.timelines
            if t.convicted and t.time_to_detection is not None
        ]

    @property
    def isolation_delays(self) -> list[float]:
        """Time-to-isolation of every convicted case (needs ``trace``)."""
        if not self.timelines:
            return []
        return [
            t.time_to_isolation
            for t in self.timelines
            if t.convicted and t.time_to_isolation is not None
        ]


#: Evasive-policy mix for the renewal zone (clusters 8-10).  Names are
#: reported in results so failures can be attributed.
_EVASIVE_POLICIES: list[tuple[str, AttackerPolicy, float]] = [
    ("aggressive", AttackerPolicy.aggressive(), 0.5),
    ("act-legit", AttackerPolicy.act_legitimately(), 0.15),
    (
        "renew-and-quiet",
        AttackerPolicy(max_replies=1, renew_after_replies=1),
        0.2,
    ),
    ("hit-and-run", AttackerPolicy(flee_after_replies=1, flee_speed=40.0), 0.15),
]


def sample_policy(config: TrialConfig, rng) -> tuple[str, AttackerPolicy]:
    """Aggressive outside the renewal zone; weighted evasive mix inside."""
    if config.policy is not None:
        return ("explicit", config.policy)
    if config.attacker_cluster not in config.table.renewal_zone:
        return ("aggressive", AttackerPolicy.aggressive())
    roll = rng.random()
    cumulative = 0.0
    for name, policy, weight in _EVASIVE_POLICIES:
        cumulative += weight
        if roll < cumulative:
            return (name, policy)
    return _EVASIVE_POLICIES[0][0], _EVASIVE_POLICIES[0][1]


def choose_destination_cluster(config: TrialConfig) -> int:
    """A cluster far enough from the attacker that the attacker cannot
    hold a genuine route to the destination (paper's placement rule)."""
    num = config.table.make_highway().num_clusters
    attacker = config.attacker_cluster
    if attacker >= num // 2 + 1:
        return max(1, attacker - 4)
    return min(num, attacker + 4)


@dataclass
class TrialSession:
    """One seeded trial as a live object that a caller can step.

    A session owns the fully assembled world plus the orchestration state
    that used to live in :func:`run_trial`'s local variables (pending
    outcomes, whether verification has been kicked off, the settle
    deadline), so a caller can hold the live world while it runs
    (``blackdp trial --serve-metrics`` serves its metrics) or advance it
    in steps with :meth:`run_to`.

    Driving a session through :meth:`run_to`/:meth:`finish` performs
    exactly the call sequence of the original monolithic ``run_trial``,
    so results are unchanged.
    """

    config: TrialConfig
    world: World
    source: object
    destination: object
    background: list
    attackers: list
    policy_name: str
    #: initial attacker pseudonyms (renewals are collected at finish)
    attacker_addresses: set[str] = field(default_factory=set)
    #: verification outcomes delivered so far (the pending callback is
    #: ``self.outcomes.append``)
    outcomes: list[VerificationOutcome] = field(default_factory=list)
    verification_started: bool = False
    #: absolute virtual time at which the settle phase ends
    deadline: float | None = None

    @property
    def sim(self):
        return self.world.sim

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_to(self, until: float) -> None:
        """Advance the trial to absolute virtual time ``until``.

        Crossing the warm-up boundary kicks off route verification at
        exactly ``t = warmup`` (matching the monolithic driver).
        """
        sim = self.world.sim
        if not self.verification_started:
            warmup = self.config.warmup
            sim.run(until=min(until, warmup))
            if until >= warmup:
                self._begin_verification()
        if until > sim.now:
            sim.run(until=until)

    def _begin_verification(self) -> None:
        self.verification_started = True
        self.deadline = self.world.sim.now + self.config.settle_time
        arena = self.config.arena
        if arena is not None and "examiner" not in arena.detectors:
            # Arena cells without the paper's examiner measure what the
            # *live detectors alone* catch: the source runs plain AODV
            # discovery (no BlackDP verification, no suspect reports)
            # and then commits data to whatever route it selected, so
            # forwarding-observation detectors get traffic to watch.
            self.source.aodv.discover(
                self.destination.address, self._on_plain_discovery
            )
            return
        self.world.verifiers["source"].establish_route(
            self.destination.address, self.outcomes.append
        )

    def _on_plain_discovery(self, result) -> None:
        route = result.route
        self.outcomes.append(
            VerificationOutcome(
                destination=result.destination,
                verified=route is not None,
                route=route,
                reason="plain-aodv",
                discoveries=result.attempts,
            )
        )
        if route is None:
            return
        arena = self.config.arena
        for index in range(arena.data_packets):
            self.world.sim.schedule(
                arena.data_interval * (index + 1),
                self._send_plain_data,
                args=(index,),
                label="arena data",
                wheel=True,
            )

    def _send_plain_data(self, index: int) -> None:
        if self.source.exited or self.source.network is None:
            return
        self.source.aodv.send_data(self.destination.address, f"arena-{index}")

    def finish(self) -> TrialResult:
        """Drive the remaining phases to completion and classify."""
        if not self.verification_started:
            self.run_to(self.config.warmup)
        assert self.deadline is not None
        self.run_to(self.deadline)
        return self._classify()

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(self) -> TrialResult:
        result = TrialResult(
            attack=self.config.attack,
            attacker_cluster=(
                self.config.attacker_cluster if self.attackers else None
            ),
            policy_name=self.policy_name,
        )
        addresses = set(self.attacker_addresses)
        # Attackers may have renewed pseudonyms during the trial.
        for attacker in self.attackers:
            addresses.add(attacker.address)
            addresses.update(getattr(attacker, "addresses_used", ()))
        result.attacker_addresses = addresses
        result.honest_addresses = {
            vehicle.address
            for vehicle in self.background + [self.source, self.destination]
        }
        result.outcome = self.outcomes[0] if self.outcomes else None
        result.records = self.world.all_records()
        stats = self.world.net.stats
        result.net_packets = stats.sent + stats.backbone_sent
        result.net_bytes = stats.bytes_sent
        obs = self.world.sim.obs
        if obs.metrics is not None:
            result.metrics = obs.metrics.snapshot()
        if obs.trace is not None:
            result.trace_events = list(obs.trace.events)
            result.trace_dropped = obs.trace.dropped
            result.timelines = reconstruct_timelines(result.trace_events)
        if obs.profiler is not None:
            result.profile = obs.profiler.report()
        if obs.timeseries is not None:
            result.series = obs.timeseries.to_values()
            result.series_times = obs.timeseries.tick_times
        return result


def begin_trial(config: TrialConfig) -> TrialSession:
    """Assemble a trial world (everything up to the warm-up run)."""
    world = build_world(
        seed=config.seed, config=config.blackdp, channel=config.channel
    )
    obs = world.sim.obs
    if config.metrics:
        obs.enable_metrics()
    if config.trace is True:
        obs.enable_trace()
    elif config.trace:
        obs.enable_trace(trace_filter=TraceFilter(kind_prefixes=config.trace))
    if config.profile:
        obs.enable_profiler()
    if config.sample_interval > 0:
        obs.enable_timeseries(interval=config.sample_interval)
    if config.sketch is not None:
        world.install_sketch_monitors(config.sketch)
    rng = world.sim.rng("trial")
    highway = world.highway

    background = world.populate(
        max(0, config.table.num_vehicles - 2),
        speed_min_kmh=config.table.speed_min_kmh,
        speed_max_kmh=config.table.speed_max_kmh,
    )
    source = world.add_vehicle("source", x=100.0, speed=0.0)
    dest_cluster = choose_destination_cluster(config)
    dest_start, dest_end = highway.cluster_bounds(dest_cluster)
    destination = world.add_vehicle(
        "destination", x=rng.uniform(dest_start + 50, dest_end - 50), speed=0.0
    )

    policy_name, attackers = "none", []
    if config.attack == ATTACK_FLOOD:
        flood_policy = config.flood or FloodPolicy()
        policy_name = f"flood-{flood_policy.variant}"
        cluster_start, cluster_end = highway.cluster_bounds(config.attacker_cluster)
        attackers = [
            world.add_flooder(
                f"flooder-{index + 1}",
                rng.uniform(cluster_start + 50, cluster_end - 50),
                policy=flood_policy,
            )
            for index in range(config.num_flooders)
        ]
    elif config.attack != ATTACK_NONE:
        policy_name, policy = sample_policy(config, rng)
        cluster_start, cluster_end = highway.cluster_bounds(config.attacker_cluster)
        attacker_x = rng.uniform(cluster_start + 50, cluster_end - 50)
        if config.attack == ATTACK_SINGLE:
            attackers = [
                world.add_attacker("attacker-b1", attacker_x, policy=policy)
            ]
        elif config.attack == ATTACK_GRAYHOLE:
            attackers = [
                world.add_grayhole("attacker-b1", attacker_x, policy=policy)
            ]
        elif config.attack == ATTACK_SYBIL:
            attackers = [
                world.add_sybil("attacker-b1", attacker_x, policy=policy)
            ]
        elif config.attack == ATTACK_ADAPTIVE:
            # Default to the probe-aware whisper policy (not the zone
            # mix): pass config.policy through so None lets the vehicle
            # apply its own ADAPTIVE_POLICY.
            if config.policy is None:
                policy_name = "adaptive-probe-aware"
            attackers = [
                world.add_adaptive("attacker-b1", attacker_x, policy=config.policy)
            ]
        elif config.attack == ATTACK_WORMHOLE:
            # Exit endpoint parks in the destination cluster so the
            # tunnel can confirm (and shortcut to) the destination.
            if config.policy is None:
                policy_name = "wormhole-tunnel"
            exit_x = rng.uniform(dest_start + 50, dest_end - 50)
            attackers = list(world.add_wormhole_pair(attacker_x, exit_x))
        else:
            teammate_x = min(attacker_x + 400.0, cluster_end + 350.0)
            attackers = list(
                world.add_cooperative_pair(attacker_x, teammate_x, policy=policy)
            )

    if config.arena is not None:
        world.install_arena(config.arena)

    session = TrialSession(
        config=config,
        world=world,
        source=source,
        destination=destination,
        background=background,
        attackers=attackers,
        policy_name=policy_name,
    )
    for attacker in attackers:
        session.attacker_addresses.add(attacker.address)
    return session


def run_trial(config: TrialConfig) -> TrialResult:
    """Build the world, run the trial, and classify the outcome.

    The world never leaves this function, so it is closed as soon as the
    result is built (:meth:`World.close
    <repro.experiments.world.World.close>`): reference counting frees it
    at once instead of leaving thousands of objects in cycles for the
    collector.  Sessions driven by their callers keep their worlds.
    """
    session = begin_trial(config)
    result = session.finish()
    session.world.close()
    return result
