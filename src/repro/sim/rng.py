"""Named, independently seeded random streams.

Every stochastic subsystem (mobility, traffic, attacker behaviour,
channel loss, ...) draws from its own ``random.Random`` instance derived
deterministically from a single root seed.  This keeps subsystems
decoupled: adding an extra draw to the mobility model does not perturb the
attacker's behaviour in an otherwise identical run, which is essential
when comparing BlackDP against baselines on the *same* scenario.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a substream seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 over the pair so that substream seeds are uncorrelated
    even for adjacent root seeds (a classic pitfall of ``root + i``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A lazily populated registry of named random streams.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.stream("mobility").random()
    >>> b = RandomStreams(seed=42).stream("mobility").random()
    >>> a == b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))
        return self._streams[name]

    def names(self) -> Iterator[str]:
        """Iterate over the names of streams created so far."""
        return iter(sorted(self._streams))

    def reset(self) -> None:
        """Re-seed every existing stream back to its initial state."""
        for name in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def getstate(self) -> dict:
        """Capture every stream's generator state, name-ordered.

        The returned mapping is deterministic for a given set of streams
        (names are sorted, each value is the stream's
        ``random.Random.getstate()`` tuple) so two identical simulations
        capture identical state, byte for byte.
        """
        return {
            "seed": self.seed,
            "streams": {
                name: self._streams[name].getstate()
                for name in sorted(self._streams)
            },
        }
