"""Scaling sweep: grid spatial index vs brute-force neighbour scan.

Every Hello beacon, RREQ flood and cluster advertisement pays one
``Network.neighbors()`` call per broadcast, so a flood round over N
vehicles costs N neighbour queries — O(N²) pairwise distance checks on
the brute-force path, O(N · nearby) with the uniform grid.  This sweep
measures exactly that hot path: a moving Table-I-style highway
population where every vehicle performs one broadcast fan-out query per
round, repeated over simulated time so the grid pays its epoch rebuilds.

Run the full sweep (writes ``BENCH_spatial.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_spatial.py

CI smoke mode (tiny sweep, asserts grid == brute force and a wall-clock
budget, writes nothing)::

    PYTHONPATH=src python benchmarks/bench_spatial.py --smoke

The brute-force arm times :func:`brute_neighbors`, an O(N) scan over
the same network.  The sweep also cross-checks every grid query's
result against it on a sampled round (``--verify-all`` checks every
round).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import date
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.mobility import VehicleMotion  # noqa: E402
from repro.net import Network, Node  # noqa: E402
from repro.sim import Simulator  # noqa: E402

#: Highway geometry: Table I strip (10 km x 200 m); a 500 m DSRC radio
#: keeps several grid cells across the strip at every population size.
HIGHWAY_LENGTH = 10_000.0
HIGHWAY_WIDTH = 200.0
TRANSMISSION_RANGE = 500.0


class BenchVehicle(Node):
    """Minimal kinematic node: lazy position, no protocol stack."""

    def __init__(self, sim, node_id, motion):
        super().__init__(
            sim, node_id, transmission_range=TRANSMISSION_RANGE
        )
        self.motion = motion

    @property
    def position(self):
        return self.motion.position(self.sim.now)

    @property
    def speed(self):
        return self.motion.speed_at(self.sim.now)


def build_population(n: int) -> tuple[Simulator, Network]:
    sim = Simulator(seed=42)
    net = Network(sim)
    rng = sim.rng("bench-placement")
    for i in range(n):
        motion = VehicleMotion(
            entry_time=0.0,
            entry_x=rng.uniform(0.0, HIGHWAY_LENGTH),
            speed=rng.uniform(-25.0, 25.0),  # Table I: 50-90 km/h
            lane_y=rng.uniform(0.0, HIGHWAY_WIDTH),
        )
        net.attach(BenchVehicle(sim, f"veh-{i}", motion))
    return sim, net


def brute_neighbors(net: Network, node: Node) -> list[Node]:
    """Every attached node in range, in attach order: the O(N) scan."""
    return [other for other in net.nodes if net._pair_in_range(node, other)]


def run_sweep(
    n: int, rounds: int, *, spatial: bool, verify_rounds: frozenset[int]
) -> tuple[float, int, int]:
    """Every vehicle broadcasts once per round; time the fan-out queries.

    Returns (wall_seconds, total_neighbor_links, rebuilds).
    """
    sim, net = build_population(n)
    neighbors = net.neighbors if spatial else partial(brute_neighbors, net)
    links = 0
    elapsed = 0.0
    for round_index in range(rounds):
        # advance simulated time so lazy positions drift across cells
        # and the grid has to pay its epoch rebuilds inside the timing
        sim.run(until=(round_index + 1) * 0.5)
        started = time.perf_counter()
        for node in net.nodes:
            links += len(neighbors(node))
        elapsed += time.perf_counter() - started
        if round_index in verify_rounds and spatial:
            for node in net.nodes:
                expected = brute_neighbors(net, node)
                got = net.neighbors(node)
                if got != expected:
                    raise AssertionError(
                        f"grid/brute divergence: n={n} round={round_index} "
                        f"node={node.node_id}: {len(got)} vs {len(expected)}"
                    )
    return elapsed, links, net.spatial.rebuilds


def bench_point(n: int, rounds: int, *, verify_all: bool) -> dict:
    verify = (
        frozenset(range(rounds)) if verify_all else frozenset({0, rounds - 1})
    )
    brute_seconds, brute_links, _ = run_sweep(
        n, rounds, spatial=False, verify_rounds=frozenset()
    )
    grid_seconds, grid_links, rebuilds = run_sweep(
        n, rounds, spatial=True, verify_rounds=verify
    )
    if grid_links != brute_links:
        raise AssertionError(
            f"link-count mismatch at n={n}: grid {grid_links} vs "
            f"brute {brute_links}"
        )
    queries = n * rounds
    return {
        "vehicles": n,
        "rounds": rounds,
        "queries": queries,
        "neighbor_links": grid_links,
        "brute_seconds": round(brute_seconds, 4),
        "grid_seconds": round(grid_seconds, 4),
        "brute_us_per_query": round(brute_seconds / queries * 1e6, 2),
        "grid_us_per_query": round(grid_seconds / queries * 1e6, 2),
        "speedup": round(brute_seconds / grid_seconds, 2)
        if grid_seconds > 0
        else float("inf"),
        "grid_rebuilds": rebuilds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[25, 100, 300, 600],
        help="population sizes to sweep",
    )
    parser.add_argument(
        "--rounds", type=int, default=40, help="broadcast rounds per size"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_spatial.json",
        help="output JSON path",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI sweep: verify every round, enforce a time budget, "
        "write nothing",
    )
    parser.add_argument(
        "--verify-all",
        action="store_true",
        help="cross-check every round against the brute-force oracle",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=120.0,
        help="smoke-mode wall-clock budget in seconds",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes = [40, 120]
        args.rounds = 8
        args.verify_all = True

    started = time.perf_counter()
    results = []
    for n in args.sizes:
        point = bench_point(n, args.rounds, verify_all=args.verify_all)
        results.append(point)
        print(
            f"n={point['vehicles']:>4}  brute {point['brute_seconds']:>7.3f}s "
            f"({point['brute_us_per_query']:>8.1f} us/q)  "
            f"grid {point['grid_seconds']:>7.3f}s "
            f"({point['grid_us_per_query']:>7.1f} us/q)  "
            f"speedup {point['speedup']:>5.2f}x  "
            f"rebuilds {point['grid_rebuilds']}"
        )
    total = time.perf_counter() - started

    if args.smoke:
        print(f"smoke OK: grid == brute force on every round ({total:.1f}s)")
        if total > args.budget:
            print(f"FAIL: smoke exceeded {args.budget:.0f}s budget")
            return 1
        return 0

    payload = {
        "benchmark": (
            "broadcast fan-out sweep: every vehicle queries neighbors() "
            "once per round while traffic moves (Table I strip, "
            f"{TRANSMISSION_RANGE:.0f} m radios, {args.rounds} rounds)"
        ),
        "recorded": date.today().isoformat(),
        "python": platform.python_version(),
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
