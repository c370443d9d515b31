"""Seeded, mergeable streaming summaries.

Two classic structures back the aggregate monitor:

``CountMinSketch``
    A ``depth x width`` grid of counters; each update increments one
    counter per row at a seeded hash position.  Point queries return
    the row minimum — an upper bound on the true count whose error is
    bounded by ``total / width`` per row.  Constant memory, O(depth)
    per update regardless of key cardinality.

``SpaceSavingSummary``
    Metwally et al.'s heavy-hitter summary: at most ``capacity``
    monitored keys; an unmonitored arrival evicts the current minimum
    and inherits its count as its error bound.  Guaranteed to contain
    every key whose true count exceeds ``total / capacity``.

Both are deterministic (hash salts derive from an explicit seed),
mergeable (epoch sketches fold into cumulative ones; same-seed
sketches from different RSUs fold into a fleet-wide view), contain
only plain containers of numbers so they pickle/snapshot cleanly, and
draw nothing from the simulation RNG.
"""

from __future__ import annotations

import zlib
from itertools import compress

__all__ = ["CountMinSketch", "SpaceSavingSummary"]


def _salt(seed: int, row: int) -> int:
    """Deterministic per-row CRC start value."""
    return zlib.crc32(f"cms|{seed}|{row}".encode())


class CountMinSketch:
    """Count-min sketch over string keys with float-capable counters."""

    __slots__ = ("width", "depth", "seed", "total", "_salts", "_rows")

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 1) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be at least 1")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.total = 0.0
        self._salts = tuple(_salt(seed, row) for row in range(depth))
        self._rows = [[0.0] * width for _ in range(depth)]

    def add(self, key: str, amount: float = 1.0) -> None:
        data = key.encode()
        width = self.width
        for row, salt in zip(self._rows, self._salts):
            row[zlib.crc32(data, salt) % width] += amount
        self.total += amount

    def estimate(self, key: str) -> float:
        data = key.encode()
        width = self.width
        return min(
            row[zlib.crc32(data, salt) % width]
            for row, salt in zip(self._rows, self._salts)
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Fold ``other`` into this sketch (same dimensions and seed)."""
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise ValueError("can only merge sketches with identical shape and seed")
        # An epoch with no update leaves every row all zero: skip those
        # rows (one C-level count each), and visit only the non-zero
        # cells of the others, so the counters match a cell-by-cell fold.
        width = self.width
        cells = range(width)
        for mine, theirs in zip(self._rows, other._rows):
            if theirs.count(0.0) != width:
                for index in compress(cells, theirs):
                    mine[index] += theirs[index]
        self.total += other.total

    def reset(self) -> None:
        # No cell is ever -0.0 (sums onto a +0.0 cell cannot make one),
        # so a row that counts as all zeros is already reset.
        width = self.width
        for row in self._rows:
            if row.count(0.0) != width:
                row[:] = [0.0] * width
        self.total = 0.0

    @property
    def state_bytes(self) -> int:
        """Nominal state size: one 8-byte counter per cell."""
        return self.width * self.depth * 8

    def __getstate__(self):
        return (self.width, self.depth, self.seed, self.total, self._rows)

    def __setstate__(self, state) -> None:
        width, depth, seed, total, rows = state
        self.width = width
        self.depth = depth
        self.seed = seed
        self.total = total
        self._salts = tuple(_salt(seed, row) for row in range(depth))
        self._rows = rows


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

    def __getstate__(self):
        return (self.capacity, self.total, self._entries)

    def __setstate__(self, state) -> None:
        self.capacity, self.total, self._entries = state
