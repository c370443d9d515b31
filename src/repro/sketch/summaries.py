"""Seeded, mergeable streaming summaries.

Two classic structures back the aggregate monitor:

``CountMinSketch``
    A ``depth x width`` grid of counters; each update increments one
    counter per row at a seeded hash position.  Point queries return
    the row minimum — an upper bound on the true count whose error is
    bounded by ``total / width`` per row.  At most width x depth x 8
    bytes, none before the first update; O(depth) per update regardless
    of key cardinality.

``SpaceSavingSummary``
    Metwally et al.'s heavy-hitter summary: at most ``capacity``
    monitored keys; an unmonitored arrival evicts the current minimum
    and inherits its count as its error bound.  Guaranteed to contain
    every key whose true count exceeds ``total / capacity``.

Both are deterministic (hash salts derive from an explicit seed),
mergeable (epoch sketches fold into cumulative ones; same-seed
sketches from different RSUs fold into a fleet-wide view), hold only
numbers in plain containers and typed arrays, and draw nothing from the
simulation RNG.
"""

from __future__ import annotations

import zlib
from array import array
from itertools import compress

__all__ = ["CountMinSketch", "SpaceSavingSummary"]


def _salt(seed: int, row: int) -> int:
    """Deterministic per-row CRC start value."""
    return zlib.crc32(f"cms|{seed}|{row}".encode())


class CountMinSketch:
    """Count-min sketch over string keys with float-capable counters.

    The ``depth`` rows of ``width`` counters are typed ``array('d')``
    rows allocated on the first :meth:`add`, or the first :meth:`merge`
    of a sketch that holds rows; until then ``_rows`` is ``None`` and
    every counter reads as zero.  :meth:`reset` drops the rows again.
    """

    __slots__ = ("width", "depth", "seed", "total", "_salts", "_rows")

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 1) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be at least 1")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.total = 0.0
        self._salts = tuple(_salt(seed, row) for row in range(depth))
        self._rows: list[array] | None = None

    def _allocate(self) -> list[array]:
        self._rows = [array("d", [0.0]) * self.width for _ in range(self.depth)]
        return self._rows

    def add(self, key: str, amount: float = 1.0) -> None:
        rows = self._rows
        if rows is None:
            rows = self._allocate()
        data = key.encode()
        width = self.width
        for row, salt in zip(rows, self._salts):
            row[zlib.crc32(data, salt) % width] += amount
        self.total += amount

    def estimate(self, key: str) -> float:
        rows = self._rows
        if rows is None:
            return 0.0
        data = key.encode()
        width = self.width
        return min(
            row[zlib.crc32(data, salt) % width]
            for row, salt in zip(rows, self._salts)
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Fold ``other`` into this sketch (same dimensions and seed)."""
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise ValueError("can only merge sketches with identical shape and seed")
        if other._rows is not None:
            rows = self._rows
            if rows is None:
                rows = self._allocate()
            # Visit only the non-zero cells, so the counters match a
            # cell-by-cell fold.
            cells = range(self.width)
            for mine, theirs in zip(rows, other._rows):
                for index in compress(cells, theirs):
                    mine[index] += theirs[index]
        self.total += other.total

    def reset(self) -> None:
        self._rows = None
        self.total = 0.0


class SpaceSavingSummary:
    """Space-saving heavy hitters: top keys by (over-)estimated count.

    Entries are ``key -> [count, error]`` where ``count`` is an upper
    bound on the true frequency and ``error`` bounds the overestimate
    (the evicted minimum the key inherited on admission).  Eviction and
    ordering tie-break on the key string, so the summary is fully
    deterministic for a given update sequence.
    """

    __slots__ = ("capacity", "total", "_entries")

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.total = 0.0
        self._entries: dict[str, list[float]] = {}

    def add(self, key: str, amount: float = 1.0) -> None:
        self.total += amount
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] += amount
            return
        if len(self._entries) < self.capacity:
            self._entries[key] = [amount, 0.0]
            return
        victim = min(self._entries, key=lambda k: (self._entries[k][0], k))
        floor = self._entries.pop(victim)[0]
        self._entries[key] = [floor + amount, floor]

    def estimate(self, key: str) -> float:
        entry = self._entries.get(key)
        return entry[0] if entry is not None else 0.0

    def items(self) -> list[tuple[str, float, float]]:
        """``(key, count, error)`` rows, largest count first."""
        return sorted(
            ((key, entry[0], entry[1]) for key, entry in self._entries.items()),
            key=lambda row: (-row[1], row[0]),
        )

    def merge(self, other: "SpaceSavingSummary") -> None:
        """Fold ``other`` in, keeping the top ``capacity`` combined keys."""
        combined: dict[str, list[float]] = {
            key: list(entry) for key, entry in self._entries.items()
        }
        for key, entry in other._entries.items():
            mine = combined.get(key)
            if mine is None:
                combined[key] = list(entry)
            else:
                mine[0] += entry[0]
                mine[1] += entry[1]
        kept = sorted(combined, key=lambda k: (-combined[k][0], k))[: self.capacity]
        self._entries = {key: combined[key] for key in kept}
        self.total += other.total

    def reset(self) -> None:
        self._entries.clear()
        self.total = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries
