"""Temporary pseudonymous identity generation.

Vehicles in the paper change identities frequently ("frequent identity
changes and authentications due to the privacy issue"); the TA issues a
fresh pseudonym with every certificate renewal.  Pseudonyms here are
short human-readable tokens that stay unique per manager.
"""

from __future__ import annotations

import random


class PseudonymManager:
    """Issues unique pseudonymous identifiers.

    >>> pm = PseudonymManager(random.Random(0))
    >>> a = pm.issue()
    >>> b = pm.issue()
    >>> a != b
    True
    """

    def __init__(self, rng: random.Random, *, prefix: str = "pid") -> None:
        self._rng = rng
        self._prefix = prefix
        self._issued: set[str] = set()

    def issue(self) -> str:
        """Return a fresh pseudonym never returned before by this manager."""
        while True:
            candidate = f"{self._prefix}-{self._rng.getrandbits(40):010x}"
            if candidate not in self._issued:
                self._issued.add(candidate)
                return candidate
