"""The universal hash family all peers agree on.

The paper fixes one set of hash functions used everywhere (Section III-B's
"first approach": fixed-length filters, one hash set).  We derive k = 8
positions per keyword via the Kirsch-Mitzenmacher double-hashing scheme,
``h_i(x) = (a(x) + i * b(x)) mod m``, where ``a`` and ``b`` come from a
BLAKE2b digest of the keyword -- deterministic across processes and
platforms (unlike Python's salted builtin ``hash``).

Paper constants: with |K_max| = 1,000 keywords and k = 8 hash functions, the
minimum-false-positive filter length is m = ceil(1000 * 8 / ln 2) = 11,542
bits (= 1.43 KB), giving p_min = (1/2)^8 ~ 0.39%.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np

__all__ = ["BloomHasher", "PAPER_K", "PAPER_M", "optimal_bits", "min_false_positive_rate"]

#: Number of hash functions in the paper's configuration.
PAPER_K = 8

#: Largest keyword set the fixed-length filter is sized for.
PAPER_KMAX = 1000


def optimal_bits(n_items: int, k: int = PAPER_K) -> int:
    """Minimum filter length for ``n_items`` at the optimal set-bit density.

    m = n*k / ln 2 -- the paper computes 1,000 * 8 / ln 2 = 11,542 bits.
    """
    if n_items < 1:
        raise ValueError("n_items must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    return math.ceil(n_items * k / math.log(2))


#: The paper's fixed filter length in bits (11,542 = 1.43 KB).
PAPER_M = optimal_bits(PAPER_KMAX, PAPER_K)


def min_false_positive_rate(k: int = PAPER_K) -> float:
    """p_min = (1/2)^k at the optimal fill ratio (0.39% for k = 8)."""
    return 0.5**k


class BloomHasher:
    """Maps keywords to ``k`` bit positions in ``[0, m)``.

    Instances are cheap; position computation is memoised because the same
    query terms recur throughout a trace replay.
    """

    def __init__(self, m: int = PAPER_M, k: int = PAPER_K) -> None:
        if m < 8:
            raise ValueError(f"filter length too small: {m}")
        if k < 1:
            raise ValueError(f"need at least one hash function, got {k}")
        self.m = m
        self.k = k
        # Per-instance memo keyed on the term; bounded to keep memory sane.
        self._positions_cached = lru_cache(maxsize=1 << 16)(self._positions_uncached)

    def _positions_uncached(self, term: str) -> Tuple[int, ...]:
        digest = hashlib.blake2b(term.encode("utf-8"), digest_size=16).digest()
        a = int.from_bytes(digest[:8], "little")
        b = int.from_bytes(digest[8:], "little")
        # Double hashing; force b odd so the stride cycles through positions.
        b |= 1
        return tuple((a + i * b) % self.m for i in range(self.k))

    def positions(self, term: str) -> Tuple[int, ...]:
        """The ``k`` bit positions keyword ``term`` maps to."""
        return self._positions_cached(term)

    def positions_array(self, terms: Iterable[str]) -> np.ndarray:
        """Unique bit positions for a set of terms (for vectorised tests)."""
        acc: set[int] = set()
        for term in terms:
            acc.update(self.positions(term))
        return np.fromiter(sorted(acc), dtype=np.int64, count=len(acc))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BloomHasher) and other.m == self.m and other.k == self.k
        )

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((self.m, self.k))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BloomHasher(m={self.m}, k={self.k})"
