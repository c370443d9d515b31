"""Check the simulated work of an e2e smoke run against pinned values.

The smoke run's per-workload event, send and delivery counts and its
output digests depend only on the simulation, never on timing, so a
change that should leave behaviour alone must reproduce them exactly::

    python3 benchmarks/e2e/run.py --smoke --trace 1 > smoke.log
    python3 .github/check_e2e_pins.py .github/e2e-smoke-pins.json smoke.log

Exits 1 and names every mismatch otherwise.  A change that alters
behaviour on purpose re-records the pins with the pin file's
``command`` and says so.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

COUNTS = ("sim.events", "net.sent", "net.delivered")


def observed(log: str) -> dict[str, dict]:
    """Per-workload counts and output digest from a ``--trace 1`` log."""
    found: dict[str, dict] = {}
    workload = None
    for line in log.splitlines():
        header = re.match(r"== (\S+) ", line)
        if header:
            workload = header.group(1)
            found[workload] = {}
        digest = re.search(r"output digest ([0-9a-f]+)", line)
        if digest and workload is not None:
            found[workload]["output digest"] = digest.group(1)
    metrics = json.loads(log.strip().splitlines()[-1])["metrics"]
    for workload, values in found.items():
        for name in COUNTS:
            entry = metrics.get(f"{workload}.{name}")
            if entry is not None:
                values[name] = entry["value"]
    return found


def main(argv: list[str]) -> int:
    pins_path, log_path = argv
    pins = json.loads(Path(pins_path).read_text())["workloads"]
    seen = observed(Path(log_path).read_text())
    problems = [
        f"{workload} {name}: pinned {want!r}, got {seen.get(workload, {}).get(name)!r}"
        for workload, values in pins.items()
        for name, want in values.items()
        if seen.get(workload, {}).get(name) != want
    ]
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"e2e smoke pins hold for {', '.join(pins)}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
