"""Memoized certificate-signature verification.

Every hop of every route discovery re-verifies the same handful of
certificates: the TA signs a certificate once, but ``verify_with`` runs
at each verifier, for each RREP, each Hello and each detection round —
re-deriving the authority's expected tag over an identical payload each
time.  The memo here caches the *expected* signature keyed by
``(authority key token, sha256(payload))``.  Because the expected tag is
a pure function of the key and the message, memoizing it cannot change
any verification outcome: the presented signature is still compared
against the expected one (in constant time) on every call, so a forged
or truncated signature fails identically on a warm or cold cache.

Revocation invalidation: a revoked certificate's signature remains
mathematically valid (revocation lives in the CRL, not the signature),
but a revocation is the one moment trust in a payload changes, so
:meth:`repro.crypto.authority.TrustedAuthority.receive_revocation`
drops the revoked certificate's cache entry.  The next verification of
that payload recomputes from first principles — the cache never holds
state about certificates the network has condemned.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict

from repro.crypto.keys import _SIGNATURE_BYTES, PublicKey, expected_signature


class SignatureCache:
    """LRU memo of expected certificate signatures.

    Parameters
    ----------
    maxsize:
        Entries kept before least-recently-used eviction.  One entry is
        ~80 bytes; the default covers every certificate in a Table I
        world many times over.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._memo: OrderedDict[tuple[bytes, bytes], bytes] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memo)

    @staticmethod
    def _key(public: PublicKey, message: bytes) -> tuple[bytes, bytes]:
        return (public.token, hashlib.sha256(message).digest())

    def verify(self, public: PublicKey, message: bytes, signature) -> bool:
        """Drop-in for :func:`repro.crypto.keys.verify`, memoized."""
        if not isinstance(signature, (bytes, bytearray)):
            return False
        if len(signature) != _SIGNATURE_BYTES:
            return False
        key = self._key(public, message)
        expected = self._memo.get(key)
        if expected is None:
            self.misses += 1
            expected = expected_signature(public, message)
            self._memo[key] = expected
            if len(self._memo) > self.maxsize:
                self._memo.popitem(last=False)
        else:
            self.hits += 1
            self._memo.move_to_end(key)
        return hmac.compare_digest(expected, bytes(signature))

    def invalidate(self, public: PublicKey, message: bytes) -> bool:
        """Drop the entry for one (key, message) pair, if cached."""
        if self._memo.pop(self._key(public, message), None) is not None:
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        """Empty the memo and reset the counters."""
        self._memo.clear()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "entries": len(self._memo),
        }


#: Process-wide memo used by :meth:`Certificate.verify_with`.  Trials are
#: deterministic with or without it (the memo never changes an outcome),
#: so worker processes each warming their own copy is correct by
#: construction.
signature_cache = SignatureCache()
