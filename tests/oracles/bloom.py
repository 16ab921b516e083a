"""Plain and counting Bloom filters.

A *source* peer maintains a :class:`CountingBloomFilter` over its keyword
multiset -- the "(i, x): the i-th bit is set x times" representation of the
paper -- so removing a document's keywords is possible.  What travels inside
a full ad is the plain bitmap projection (:meth:`CountingBloomFilter.bitmap`),
and what travels inside a patch ad is the list of bit positions whose
plain-bitmap value flipped between two versions
(:meth:`CountingBloomFilter.diff_positions`).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.bloom.hashing import BloomHasher, PAPER_K, PAPER_M

__all__ = ["BloomFilter", "CountingBloomFilter", "positions_reference"]


def positions_reference(term: str, m: int, k: int) -> Tuple[int, ...]:
    """The double-hashing positions of ``term`` in Python integers: no
    reduction before the sum, so nothing can overflow."""
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=16).digest()
    a = int.from_bytes(digest[:8], "little")
    b = int.from_bytes(digest[8:], "little") | 1
    return tuple((a + i * b) % m for i in range(k))


class BloomFilter:
    """A fixed-length Bloom filter over keywords (the full-ad payload)."""

    def __init__(self, hasher: BloomHasher | None = None) -> None:
        self.hasher = hasher or BloomHasher(PAPER_M, PAPER_K)
        self._bits = np.zeros(self.hasher.m, dtype=bool)

    # ------------------------------------------------------------- mutation
    def add(self, term: str) -> None:
        """Insert one keyword."""
        for pos in self.hasher.positions(term):
            self._bits[pos] = True

    def add_all(self, terms: Iterable[str]) -> None:
        for term in terms:
            self.add(term)

    def set_positions(self, positions: Sequence[int]) -> None:
        """Set raw bit positions (used when reconstructing from wire data)."""
        self._bits[np.asarray(positions, dtype=np.int64)] = True

    def flip_positions(self, positions: Sequence[int]) -> None:
        """Flip raw bit positions (applying a patch ad)."""
        idx = np.asarray(positions, dtype=np.int64)
        self._bits[idx] = ~self._bits[idx]

    def clear(self) -> None:
        self._bits[:] = False

    # -------------------------------------------------------------- queries
    def __contains__(self, term: str) -> bool:
        return bool(self._bits[self.hasher.positions_array([term])].all())

    def contains_all(self, terms: Iterable[str]) -> bool:
        """The paper's match rule: filter returns true for ALL query terms.

        One gather over the union of all terms' positions -- equivalent to
        testing each term, since membership is a conjunction of bits.
        """
        return bool(self._bits[self.hasher.positions_array(terms)].all())

    def set_bits(self) -> np.ndarray:
        """Positions of set bits (sorted)."""
        return np.nonzero(self._bits)[0]

    @property
    def n_set(self) -> int:
        return int(np.count_nonzero(self._bits))

    @property
    def m(self) -> int:
        return self.hasher.m

    def fill_ratio(self) -> float:
        return self.n_set / self.hasher.m

    def false_positive_rate(self) -> float:
        """Estimated FPR at the current fill ratio: (n_set/m)^k."""
        return float(self.fill_ratio() ** self.hasher.k)

    def bits_view(self) -> np.ndarray:
        """Read-only bit array view (do not mutate)."""
        return self._bits

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self.hasher)
        clone._bits = self._bits.copy()
        return clone

    def union(self, other: "BloomFilter") -> "BloomFilter":
        if other.hasher != self.hasher:
            raise ValueError("cannot union filters with different hashers")
        out = BloomFilter(self.hasher)
        out._bits = self._bits | other._bits
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BloomFilter)
            and other.hasher == self.hasher
            and np.array_equal(other._bits, self._bits)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BloomFilter(m={self.m}, set={self.n_set})"


class CountingBloomFilter:
    """The source-side filter: per-bit insertion counts, supporting removal.

    This is the paper's "(i, x) -- the i-th bit is set x times" structure.
    The plain-bitmap projection is ``counts > 0``.
    """

    def __init__(self, hasher: BloomHasher | None = None) -> None:
        self.hasher = hasher or BloomHasher(PAPER_M, PAPER_K)
        self._counts = np.zeros(self.hasher.m, dtype=np.int32)
        # Set-bit count maintained incrementally: callers (ad sizing) query
        # it per ad reply, and recounting 11k entries each time dominates
        # profiles at scale.
        self._n_set = 0

    # ------------------------------------------------------------- mutation
    def add(self, term: str) -> None:
        for pos in self.hasher.positions(term):
            if self._counts[pos] == 0:
                self._n_set += 1
            self._counts[pos] += 1

    def add_all(self, terms: Iterable[str]) -> None:
        for term in terms:
            self.add(term)

    def remove(self, term: str) -> None:
        """Remove one prior insertion of ``term``.

        Removing a term that was never added corrupts a counting filter; we
        guard against it because in the simulator it always indicates a
        content-index bug.
        """
        # Double hashing can (rarely) map a term to a repeated position;
        # group the decrements so the underflow guard stays exact.
        needed = Counter(self.hasher.positions(term))
        if any(self._counts[pos] < times for pos, times in needed.items()):
            raise ValueError(f"term {term!r} was not present in the filter")
        for pos, times in needed.items():
            self._counts[pos] -= times
            if self._counts[pos] == 0:
                self._n_set -= 1

    def remove_all(self, terms: Iterable[str]) -> None:
        for term in terms:
            self.remove(term)

    # -------------------------------------------------------------- queries
    def __contains__(self, term: str) -> bool:
        return bool((self._counts[self.hasher.positions_array([term])] > 0).all())

    def contains_all(self, terms: Iterable[str]) -> bool:
        return bool((self._counts[self.hasher.positions_array(terms)] > 0).all())

    @property
    def n_set(self) -> int:
        return self._n_set

    def bitmap(self) -> BloomFilter:
        """The plain-bitmap projection that travels in a full ad."""
        out = BloomFilter(self.hasher)
        out._bits = self._counts > 0
        return out

    def bitmap_bits(self) -> np.ndarray:
        """Boolean bit array without constructing a BloomFilter."""
        return self._counts > 0

    def diff_positions(self, previous_bitmap: np.ndarray) -> np.ndarray:
        """Bit positions whose plain value differs from ``previous_bitmap``.

        This is exactly the payload of a patch ad ("a list of changed bit
        locations in the filter", Section III-B).
        """
        if len(previous_bitmap) != self.hasher.m:
            raise ValueError("bitmap length mismatch")
        return np.nonzero((self._counts > 0) != previous_bitmap)[0]

    def as_tuples(self) -> List[Tuple[int, int]]:
        """The paper's compressed "(i, x)" representation."""
        idx = np.nonzero(self._counts)[0]
        return [(int(i), int(self._counts[i])) for i in idx]
