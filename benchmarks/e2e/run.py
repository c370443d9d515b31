"""End-to-end benchmark of the BlackDP reproduction, with per-layer tracing.

Run from the repository root (no install needed; ``src/`` is put on the
path of every repeat)::

    python3 benchmarks/e2e/run.py --workload fig4_slice --seed 0 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --workload arena --trace 1   # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke                      # every gate, < 60 s
    python3 benchmarks/e2e/run.py                              # all four workloads

``--trace 0`` runs repeats of one workload, each in a fresh process
(``workloads.py``), one after another, until ``--seconds`` are used up
(at least ``--repeats``), and prints the end-to-end metrics computed
over the repeats (see :func:`end_to_end`).  ``--trace 1`` runs one
untraced and one traced repeat and prints the per-layer metrics.
Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The metric names,
units and bounds live in ``BENCHMARK.json`` at the repository root;
``README.md`` next to this file defines each one.

A unit (one trial, or one simulated second of ``hello600``) fails when
its repeat crashes, when it breaks its workload's invariant, or when its
output digest differs from the first repeat's.  A traced repeat must
reproduce the untraced digests and exact counts.  The exit status is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

WORKLOADS = ("fig4_slice", "arena", "rreq_flood", "hello600")

#: A run must end within 180 s; repeats stop being started before this.
RUN_DEADLINE_S = 170.0
#: ``--smoke`` must finish all four workloads within this.
SMOKE_BUDGET_S = 60.0
#: Traced per-layer self times (plus driver and tracer) must add up to
#: the traced wall time within this share.
SUM_TOLERANCE = 0.02


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(workload: str, seed: int, *, smoke: bool, traced: bool, deadline: float):
    """One repeat in a fresh interpreter; its ``RESULT`` payload or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, str(HERE / "workloads.py"), workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
    spawned = time.monotonic()
    command += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(
            command,
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: repeat timed out", file=sys.stderr)
        return None
    for line in reversed(proc.stdout.splitlines()):
        if proc.returncode == 0 and line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    print(
        f"{workload}: repeat failed (exit {proc.returncode})\n{proc.stderr[-2000:]}",
        file=sys.stderr,
    )
    return None


def grade(results: list) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over the repeats of one workload.

    Units are compared digest by digest with the first repeat that ran.
    """
    reference = next((r for r in results if r is not None), None)
    expected = reference["units"] if reference else 1
    attempted = failed = 0
    problems: list[str] = []
    for number, result in enumerate(results, 1):
        if result is None:
            attempted += expected
            failed += expected
            problems.append(f"repeat {number} crashed")
            continue
        attempted += max(result["units"], expected)
        bad = {}
        for index, reason in result["failures"]:
            bad.setdefault(index, reason)
        pairs = zip_longest(result["digests"], reference["digests"])
        for index, (mine, first) in enumerate(pairs):
            if mine != first:
                bad.setdefault(index, "output differs from the first repeat")
        failed += len(bad)
        problems += [f"repeat {number} unit {i}: {why}" for i, why in sorted(bad.items())]
        problems += [f"repeat {number}: {abort}" for abort in result["aborts"]]
    return attempted, failed, problems


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(results: list) -> dict[str, float]:
    """The user-facing metrics of one run.

    Every repeat does the same units, so each unit's time is taken from
    its fastest repeat: a slow spell of the host then inflates a unit
    only if it hit that unit in every repeat.  ``wall_s`` adds the
    median time the repeats spent outside units (ledger writes,
    executor bookkeeping).  Set-up and memory are medians over repeats.
    """
    ran = [r for r in results if r is not None]
    fastest = [min(times) for times in zip(*(r["unit_seconds"] for r in ran))]
    outside = statistics.median(r["wall_s"] - sum(r["unit_seconds"]) for r in ran)
    wall = sum(fastest) + outside
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ran),
        "wall_s": wall,
        "units_per_s": len(fastest) / wall,
        "unit_p50_ms": 1000.0 * percentile(fastest, 50),
        "unit_p95_ms": 1000.0 * percentile(fastest, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ran),
    }


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    """The traced repeat's layer report, exact counts and tracer cost."""
    metrics = dict(traced["trace"]["report"])
    metrics.update(traced["counts"])
    sent = metrics["net.sent"]
    metrics["net.fanout"] = metrics["net.delivered"] / sent if sent else 0.0
    metrics["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    return metrics


def trace_checks(plain: dict, traced: dict, metrics: dict) -> list[str]:
    """Passivity of the tracer and closure of its accounting."""
    from tracer import DRIVER, LAYERS

    problems = []
    if plain["counts"] != traced["counts"]:
        problems.append(
            f"traced counts {traced['counts']} differ from untraced {plain['counts']}"
        )
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    total += metrics[f"{DRIVER}.self_s"] + metrics["tracer.self_s"]
    share = total / traced["wall_s"]
    print(f"  layer self times + driver + tracer = {share:.4f} x traced wall_s")
    if abs(share - 1.0) > SUM_TOLERANCE:
        problems.append(f"per-layer self times add up to {share:.4f} x wall")
    missing = traced["trace"]["missing_entry_points"]
    if missing:
        print(f"  warning: entry points not found: {', '.join(missing)}")
    print(
        f"  spans of the first unit: {traced['trace']['spans_written']} records "
        f"in {traced['trace']['spans_file']}"
    )
    return problems


def output_digest(results: list) -> str:
    reference = next((r for r in results if r is not None), None)
    if reference is None:
        return "-"
    return hashlib.sha256("".join(reference["digests"]).encode()).hexdigest()[:16]


def show(workload: str, metrics: dict[str, float], specs: list[dict]) -> dict:
    """Print every metric, units from ``specs``; returns the ``specs``
    ones as JSON entries.  Traced repeats also print what
    ``BENCHMARK.json`` leaves out, such as layers that read 0 on every
    workload."""
    units = {spec["name"]: spec for spec in specs}
    out = {}
    for name, value in metrics.items():
        spec = units.get(name)
        if spec is not None:
            out[name] = {"value": value, "unit": spec["unit"]}
            note = f"  ({spec['better']} is better"
            note += f", bound {spec['bound']:.0%})" if "bound" in spec else ")"
        else:
            note = "  (not in BENCHMARK.json)"
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        suffix = name.rpartition("_")[2]
        unit = spec["unit"] if spec else suffix if suffix in ("s", "ms", "us") else ""
        print(f"  {workload:<11} {name:<34} {text:>14} {unit}{note}")
    return out


def run_workload(workload: str, args, spec: dict, deadline: float) -> dict:
    """Measure one workload in the requested mode; its result object."""
    print(f"== {workload} (seed {args.seed}, trace {args.trace}{', smoke' if args.smoke else ''})")
    paired = bool(args.trace or args.smoke)
    if paired:
        # one untraced and one traced repeat: the tracer-passivity check
        results = [
            spawn(workload, args.seed, smoke=args.smoke, traced=traced, deadline=deadline)
            for traced in (False, True)
        ]
    else:
        results = []
        started = time.monotonic()
        while True:
            results.append(
                spawn(workload, args.seed, smoke=False, traced=False, deadline=deadline)
            )
            elapsed = time.monotonic() - started
            next_end = elapsed + elapsed / len(results)
            if len(results) >= args.repeats and next_end > args.seconds:
                break
            if started + next_end > deadline:
                break
    attempted, failed, problems = grade(results)
    ran = [r for r in results if r is not None]
    metrics: dict = {}
    if ran:
        print(f"  repeats {len(ran)}, output digest {output_digest(results)}")
        for key, value in ran[0]["info"].items():
            print(f"  {key}: {value}")
    if paired and len(ran) == 2:
        layer = per_layer(*ran)
        problems += trace_checks(*ran, layer)
        if args.trace:
            metrics = show(workload, layer, spec["per_layer"])
    if ran and not args.trace:
        metrics = show(workload, end_to_end(ran[:1] if paired else ran), spec["end_to_end"])
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more")
    correct = not problems and len(metrics) > 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0, help="added to each workload's base seed")
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=2, help="fewest repeats per workload (default 2)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: every gate and the tracer-passivity check")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: needs src/repro and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    started = time.monotonic()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    outcomes = {}
    for workload in workloads:
        deadline = time.monotonic() + RUN_DEADLINE_S
        outcomes[workload] = run_workload(workload, args, spec, deadline)
    if args.smoke:
        elapsed = time.monotonic() - started
        print(f"smoke finished in {elapsed:.1f} s (budget {SMOKE_BUDGET_S:.0f} s)")
        if elapsed > SMOKE_BUDGET_S:
            outcomes[workloads[-1]]["correct"] = False
    if len(outcomes) == 1:
        final = outcomes[workloads[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {
                f"{workload}.{name}": entry
                for workload, outcome in outcomes.items()
                for name, entry in outcome["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
