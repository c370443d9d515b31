"""Outside-in span tracer: attributes wall time to the ``repro`` layers.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces a fixed list of public entry points, and the callbacks handed to
the scheduler, the node handler table and the radio monitor taps, with
thin wrappers that open a *span* on entry and close it on exit.  A span
stack turns the nested spans into self time: a span's duration minus the
durations of the spans it directly contains.

Buckets
-------
Every span lands in one bucket.  The 16 *layers* are the ``repro.*``
subpackages.  A callback belongs to the layer of its owner's class (of
its module, for plain functions), except that the forwarders in
``repro.sim.timers`` are attributed to the action they fire.  Three
*boundary* buckets split a layer further: ``net.transmit``,
``experiments.world_build`` and ``experiments.campaign``.  Their self
time also counts toward their layer.  ``driver`` is the root span: the
benchmark's own code plus everything no wrapper covers.

Cost accounting
---------------
A wrapper costs a fixed amount of host time per call: part of it falls
between the span's own clock reads (``inner``), the rest in the caller's
frame (``outer``); routing a scheduled callback through the tracer costs
the scheduling caller ``route``.  :meth:`Tracer.calibrate` measures these
on no-op calls.  Every closed span subtracts ``inner`` from its own self
time and ``outer`` from its parent's, and the removed time is reported as
``tracer.self_s``, so that by construction::

    sum(self time of every bucket) + tracer.self_s == root duration

The wrappers only call through.  They never change arguments, return
values, exceptions, or the order of anything the simulation does, so a
traced run produces the same results as an untraced one.  The benchmark
checks this on every traced run.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial
from pathlib import Path
from types import ModuleType

#: The ``repro.*`` subpackages, in stack order (bottom first).
LAYERS = (
    "sim",
    "net",
    "mobility",
    "vehicles",
    "routing",
    "clusters",
    "crypto",
    "core",
    "attacks",
    "baselines",
    "arena",
    "sketch",
    "obs",
    "experiments",
    "snapshot",
    "metrics",
)

#: Sub-buckets of one layer, measured at a named boundary.
BOUNDARIES = ("net.transmit", "experiments.world_build", "experiments.campaign")

#: The root span: the benchmark's own code and the unattributed remainder.
DRIVER = "driver"

BUCKETS = LAYERS + BOUNDARIES + (DRIVER,)
BUCKET_INDEX = {name: index for index, name in enumerate(BUCKETS)}

_WORLD_BUILD = "experiments.world_build"
_CAMPAIGN = "experiments.campaign"

#: ``(module, attribute path, bucket)``: the entry points wrapped as
#: spans.  A class method is patched on its class; a module function is
#: replaced in every loaded ``repro.*`` module that imported it.
ENTRY_POINTS = (
    ("repro.sim.simulator", "Simulator.run", "sim"),
    ("repro.net.network", "Network.transmit", "net.transmit"),
    ("repro.experiments.world", "build_world", _WORLD_BUILD),
    ("repro.experiments.world", "World.populate", _WORLD_BUILD),
    ("repro.experiments.world", "World.add_vehicle", _WORLD_BUILD),
    ("repro.experiments.world", "World.add_attacker", _WORLD_BUILD),
    ("repro.experiments.world", "World.add_flooder", _WORLD_BUILD),
    ("repro.experiments.world", "World.add_grayhole", _WORLD_BUILD),
    ("repro.experiments.world", "World.add_sybil", _WORLD_BUILD),
    ("repro.experiments.world", "World.add_adaptive", _WORLD_BUILD),
    ("repro.experiments.world", "World.add_wormhole_pair", _WORLD_BUILD),
    ("repro.experiments.world", "World.add_cooperative_pair", _WORLD_BUILD),
    ("repro.experiments.world", "World.install_sketch_monitors", _WORLD_BUILD),
    ("repro.experiments.world", "World.install_arena", _WORLD_BUILD),
    ("repro.core", "install_detection", _WORLD_BUILD),
    ("repro.core", "install_verifier", _WORLD_BUILD),
    ("repro.sketch", "install_monitors", _WORLD_BUILD),
    ("repro.arena", "install_detectors", _WORLD_BUILD),
    ("repro.experiments.campaign", "Campaign.create", _CAMPAIGN),
    ("repro.experiments.campaign", "_write_atomic", _CAMPAIGN),
    ("repro.experiments.executor", "append_jsonl_line", _CAMPAIGN),
    ("repro.obs.trace", "TraceCollector.emit", "obs"),
    ("repro.obs.timeline", "reconstruct_timelines", "obs"),
    ("repro.crypto.keys", "sign", "crypto"),
    ("repro.crypto.keys", "verify", "crypto"),
    ("repro.crypto.keys", "generate_keypair", "crypto"),
    ("repro.crypto.sigcache", "SignatureCache.verify", "crypto"),
    ("repro.crypto.certificates", "Certificate.verify_with", "crypto"),
    ("repro.crypto.authority", "TrustedAuthority.enroll", "crypto"),
    ("repro.crypto.authority", "TrustedAuthority.renew", "crypto"),
    ("repro.crypto.authority", "TrustedAuthority.revoke", "crypto"),
    ("repro.crypto.authority", "TrustedAuthority.receive_revocation", "crypto"),
    ("repro.crypto.authority", "TrustedAuthorityNetwork.propagate_revocation", "crypto"),
    ("repro.baselines.sequence", "SequenceComparisonDetector.evaluate", "baselines"),
    ("repro.baselines.sequence", "PeakThresholdDetector.evaluate", "baselines"),
    ("repro.baselines.sequence", "PeakThresholdDetector.update", "baselines"),
    ("repro.baselines.sequence", "StaticThresholdDetector.evaluate", "baselines"),
    ("repro.baselines.trust", "WatchdogTrustDetector.observe", "baselines"),
    ("repro.baselines.trust", "WatchdogTrustDetector.absorb_votes", "baselines"),
    ("repro.baselines.naive_probe", "NaiveProbeDetector.probe_verdict", "baselines"),
)

#: Most span records kept for the JSONL dump (the first unit only).
RECORD_LIMIT = 100_000

#: Marks a patched attribute that the owner only inherited.
_INHERITED = object()
#: Class-cache markers: not looked up yet / a timer forwarder.
_UNKNOWN = object()
_FORWARDER = object()


def bucket_of_module(module: str | None) -> int | None:
    """Layer bucket of a ``repro.<layer>...`` module name, else None."""
    if not module or not module.startswith("repro."):
        return None
    return BUCKET_INDEX.get(module.split(".")[1])


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Reference self-time arithmetic over finished span records.

    ``spans`` are ``(bucket, start, end, parent_index)``, parent -1 for
    the root.  The tests check the live stack arithmetic against it.
    """
    child = [0.0] * len(spans)
    for _bucket, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for index, (bucket, start, end, _parent) in enumerate(spans):
        totals[bucket] = totals.get(bucket, 0.0) + (end - start) - child[index]
    return totals


def _noop(*args, **kwargs) -> None:
    return None


class Tracer:
    """Span stack plus per-bucket totals for one traced process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: wrapper costs in seconds per call (see :meth:`calibrate`)
        self.span_inner = self.span_outer = 0.0
        self.call_inner = self.call_outer = 0.0
        self.route_cost = 0.0
        self.self_time = [0.0] * len(BUCKETS)
        self.calls = [0] * len(BUCKETS)
        #: wrapper cost removed from the buckets so far
        self.overhead = [0.0]
        #: open frames: [start, child_duration, record_index]
        self.stack: list[list] = []
        #: span records ``[bucket, start, end, parent, unit]``
        self.records: list[list] = []
        self.recording = False
        self.unit: object = None
        self.root_start = 0.0
        self.root_duration = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._class_bucket: dict = {}
        self.dispatch = self._make_dispatch()
        self.route = self._make_route()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, bucket: int, fn):
        """``fn`` wrapped so that each call is one span in ``bucket``."""
        stack, self_time, calls = self.stack, self.self_time, self.calls
        overhead, clock, tracer = self.overhead, self.clock, self
        inner, outer = self.span_inner, self.span_outer
        cost = inner + outer

        def traced(*args, **kwargs):
            start = clock()
            frame = [start, 0.0, -1]
            if tracer.recording:
                frame[2] = tracer._open_record(bucket, start)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[bucket] += duration - frame[1] - inner
                calls[bucket] += 1
                stack[-1][1] += duration + outer
                overhead[0] += cost
                if frame[2] >= 0:
                    tracer.records[frame[2]][2] = end

        traced.__wrapped__ = fn
        traced._e2e_traced = True
        return traced

    def _make_dispatch(self):
        """The event action of a traced scheduled callback:
        ``dispatch(bucket, action, args)`` runs ``action(*args)`` as one
        span.  Same body as :meth:`span`, without a closure per event."""
        stack, self_time, calls = self.stack, self.self_time, self.calls
        overhead, clock, tracer = self.overhead, self.clock, self
        inner, outer = self.call_inner, self.call_outer
        cost = inner + outer

        def dispatch(bucket, action, args):
            start = clock()
            frame = [start, 0.0, -1]
            if tracer.recording:
                frame[2] = tracer._open_record(bucket, start)
            stack.append(frame)
            try:
                return action(*args)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[bucket] += duration - frame[1] - inner
                calls[bucket] += 1
                stack[-1][1] += duration + outer
                overhead[0] += cost
                if frame[2] >= 0:
                    tracer.records[frame[2]][2] = end

        return dispatch

    def _make_route(self):
        """``route(action, args)`` -> the ``(action, args)`` to schedule:
        the traced dispatch when the callback has a layer."""
        stack, overhead = self.stack, self.overhead
        dispatch, bucket_of = self.dispatch, self.bucket_of
        cost = self.route_cost

        def route(action, args):
            stack[-1][1] += cost
            overhead[0] += cost
            bucket = bucket_of(action)
            if bucket is None:
                return action, args
            return dispatch, (bucket, action, args)

        return route

    def _open_record(self, bucket: int, start: float) -> int:
        records = self.records
        if len(records) >= RECORD_LIMIT:
            return -1
        records.append([bucket, start, start, self.stack[-1][2], self.unit])
        return len(records) - 1

    def begin(self) -> None:
        """Zero every total and open the root (``driver``) span."""
        self.self_time[:] = [0.0] * len(BUCKETS)
        self.calls[:] = [0] * len(BUCKETS)
        self.overhead[0] = 0.0
        self.records.clear()
        self.root_start = self.clock()
        self.stack[:] = [[self.root_start, 0.0, -1]]
        if self.recording:
            self.stack[0][2] = self._open_record(BUCKET_INDEX[DRIVER], self.root_start)

    def end(self) -> None:
        """Close the root span; the totals are final afterwards."""
        end = self.clock()
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack) - 1} spans still open at end")
        frame = self.stack.pop()
        self.root_duration = end - frame[0]
        self.self_time[BUCKET_INDEX[DRIVER]] += self.root_duration - frame[1]
        self.calls[BUCKET_INDEX[DRIVER]] += 1
        if frame[2] >= 0:
            self.records[frame[2]][2] = end
        self.recording = False

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, calls: int = 50_000, rounds: int = 5) -> None:
        """Measure the wrapper costs on no-op calls (best of ``rounds``).

        A span's ``inner`` cost is its mean self time minus the cost of
        the bare no-op call; ``outer`` is the rest of what the wrapped
        call costs over the bare one.  Must run before :meth:`install`:
        wrappers capture the constants when they are created.
        """
        self.span_inner = self.span_outer = 0.0
        self.call_inner = self.call_outer = self.route_cost = 0.0
        self.dispatch = self._make_dispatch()
        self.route = self._make_route()
        bucket = BUCKET_INDEX[DRIVER]
        probe_class = type("Probe", (), {"__module__": "repro.net.probe", "hit": _noop})
        action = probe_class().hit
        spanned = self.span(bucket, _noop)
        dispatch, route = self.dispatch, self.route

        def routed(queue, time, action, args, label, pooled):
            action, args = route(action, args)
            return _noop(queue, time, action, args, label, pooled)

        def plain_loop(n):
            for _ in range(n):
                _noop()

        def span_loop(n):
            for _ in range(n):
                spanned()

        def dispatch_loop(n):
            for _ in range(n):
                dispatch(bucket, _noop, ())

        def unrouted_loop(n):
            for _ in range(n):
                _noop(None, 0.0, action, (), "", True)

        def routed_loop(n):
            for _ in range(n):
                routed(None, 0.0, action, (), "", True)

        loops = {
            "plain": plain_loop,
            "span": span_loop,
            "dispatch": dispatch_loop,
            "unrouted": unrouted_loop,
            "routed": routed_loop,
        }
        best = {name: float("inf") for name in loops}
        own = {"span": float("inf"), "dispatch": float("inf")}
        self.stack[:] = [[0.0, 0.0, -1]]
        for _ in range(rounds):
            for name, loop in loops.items():
                self.self_time[bucket] = 0.0
                started = self.clock()
                loop(calls)
                elapsed = (self.clock() - started) / calls
                if elapsed < best[name]:
                    best[name] = elapsed
                    if name in own:
                        own[name] = self.self_time[bucket] / calls
        self._reset_totals()
        self._class_bucket.pop(probe_class, None)
        self.stack.clear()
        plain = best["plain"]
        self.span_inner = max(0.0, own["span"] - plain)
        self.span_outer = max(0.0, best["span"] - plain - self.span_inner)
        self.call_inner = max(0.0, own["dispatch"] - plain)
        self.call_outer = max(0.0, best["dispatch"] - plain - self.call_inner)
        self.route_cost = max(0.0, best["routed"] - best["unrouted"])
        self.dispatch = self._make_dispatch()
        self.route = self._make_route()

    def _reset_totals(self) -> None:
        self.self_time[:] = [0.0] * len(BUCKETS)
        self.calls[:] = [0] * len(BUCKETS)
        self.overhead[0] = 0.0

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def bucket_of(self, fn) -> int | None:
        """Layer bucket of a callback: its owner's class module, or the
        fired action for the ``repro.sim.timers`` forwarders."""
        owner = getattr(fn, "__self__", None)
        if owner is None or isinstance(owner, ModuleType):
            if isinstance(fn, partial):
                return self.bucket_of(fn.func)
            return bucket_of_module(getattr(fn, "__module__", None))
        cls = type(owner)
        bucket = self._class_bucket.get(cls, _UNKNOWN)
        if bucket is _FORWARDER:
            return self.bucket_of(owner._action)
        if bucket is _UNKNOWN:
            bucket = self._class_bucket[cls] = bucket_of_module(cls.__module__)
        return bucket

    def callback(self, fn):
        """A span-wrapped callback, or ``fn`` itself when it has no layer."""
        if getattr(fn, "_e2e_traced", False):
            return fn
        bucket = self.bucket_of(fn)
        if bucket is None:
            return fn
        return self.span(bucket, fn)

    def monitor_callback(self, network, fn):
        """:meth:`callback`, memoised per network and original callable,
        so ``Network.remove_monitor(node, fn)`` finds the wrapper that
        ``add_monitor(node, fn)`` registered.  The memo lives on the
        network object, so it dies with the world instead of keeping
        every finished trial alive."""
        memo = network.__dict__.setdefault("_e2e_monitor_wrappers", {})
        wrapped = memo.get(fn)
        if wrapped is None:
            wrapped = memo[fn] = self.callback(fn)
        return wrapped

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every entry point and callback registration site.

        Returns the entry points that could not be found, so that a
        renamed API shows up in the benchmark's output.
        """
        import importlib

        from repro.net.network import Network
        from repro.net.node import Node
        from repro.sim.events import EventQueue
        from repro.sim.simulator import Simulator
        from repro.sim.timers import PeriodicTimer, Timer

        self._class_bucket[Timer] = self._class_bucket[PeriodicTimer] = _FORWARDER
        # A base frame, so that spans closing before begin() (while the
        # workload is set up) have a parent; begin() discards it.
        self.stack[:] = [[self.clock(), 0.0, -1]]
        tracer, route = self, self.route
        schedule = Simulator.schedule
        schedule_at = Simulator.schedule_at
        push_delivery = EventQueue.push_delivery
        register_handler = Node.register_handler
        add_monitor = Network.add_monitor
        remove_monitor = Network.remove_monitor

        def traced_schedule(sim, delay, action, *, args=(), **kwargs):
            action, args = route(action, args)
            return schedule(sim, delay, action, args=args, **kwargs)

        def traced_schedule_at(sim, time, action, *, args=(), **kwargs):
            action, args = route(action, args)
            return schedule_at(sim, time, action, args=args, **kwargs)

        def traced_push_delivery(queue, time, action, args, label, pooled):
            action, args = route(action, args)
            return push_delivery(queue, time, action, args, label, pooled)

        def traced_register_handler(node, packet_type, handler):
            return register_handler(node, packet_type, tracer.callback(handler))

        def traced_add_monitor(network, node, callback):
            return add_monitor(network, node, tracer.monitor_callback(network, callback))

        def traced_remove_monitor(network, node, callback=None):
            if callback is not None:
                callback = tracer.monitor_callback(network, callback)
            return remove_monitor(network, node, callback)

        self._patch(Simulator, "schedule", traced_schedule)
        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(EventQueue, "push_delivery", traced_push_delivery)
        self._patch(Node, "register_handler", traced_register_handler)
        self._patch(Network, "add_monitor", traced_add_monitor)
        self._patch(Network, "remove_monitor", traced_remove_monitor)

        missing = []
        for module_name, path, bucket in ENTRY_POINTS:
            owner_name, _, name = path.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}:{path}")
                continue
            wrapped = self.span(BUCKET_INDEX[bucket], original)
            if owner_name:
                self._patch(owner, name, wrapped)
                continue
            for loaded in list(sys.modules.values()):
                if (
                    getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, name, None) is original
                ):
                    self._patch(loaded, name, wrapped)
        return missing

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def report(self) -> dict[str, float]:
        """Per-layer and per-boundary totals as flat ``name: value`` pairs."""
        wall = self.root_duration
        out: dict[str, float] = {}
        for layer in LAYERS:
            members = [
                index
                for index, name in enumerate(BUCKETS)
                if name.split(".")[0] == layer
            ]
            seconds = sum(self.self_time[index] for index in members)
            out[f"{layer}.calls"] = sum(self.calls[index] for index in members)
            out[f"{layer}.self_s"] = seconds
            out[f"{layer}.self_frac"] = seconds / wall
        for name in BOUNDARIES:
            index = BUCKET_INDEX[name]
            out[f"{name}.calls"] = self.calls[index]
            out[f"{name}.self_s"] = self.self_time[index]
            out[f"{name}.self_frac"] = self.self_time[index] / wall
        driver = self.self_time[BUCKET_INDEX[DRIVER]]
        out["driver.self_s"] = driver
        out["driver.self_frac"] = driver / wall
        out["tracer.self_s"] = self.overhead[0]
        out["tracer.self_frac"] = self.overhead[0] / wall
        out["tracer.call_cost_us"] = (self.span_inner + self.span_outer) * 1e6
        out["trace.wall_s"] = wall
        return out

    def write_jsonl(self, path: Path) -> int:
        """Write the kept span records, one JSON object per line.

        Times are seconds since the root span opened; ``parent`` is the
        line number (from 0) of the enclosing span, -1 for the root.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.root_start
        with path.open("w") as handle:
            for bucket, start, end, parent, unit in self.records:
                record = {
                    "name": BUCKETS[bucket],
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "unit": unit,
                }
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(self.records)
