"""The universal hash family all peers agree on.

The paper fixes one set of hash functions used everywhere (Section III-B's
"first approach": fixed-length filters, one hash set).  We derive k = 8
positions per keyword via the Kirsch-Mitzenmacher double-hashing scheme,
``h_i(x) = (a(x) + i * b(x)) mod m`` with ``b`` forced odd, where ``a`` and
``b`` are the two little-endian 64-bit halves of a 16-byte BLAKE2b digest of
the keyword -- deterministic across processes and platforms (unlike
Python's salted builtin ``hash``).

The formula is written once, as an array expression over many keywords
(:meth:`BloomHasher.positions_of`): since ``(a + i*b) mod m`` equals
``((a mod m) + i * (b mod m)) mod m``, reducing both halves first keeps every
intermediate below ``(k + 1) * m`` and the whole table is one int64
expression with no overflow.  A store's hasher keeps the rows it has
computed as one keyword-position table keyed by the content index's
keyword ids (:meth:`BloomHasher.rows`), so each distinct keyword is hashed
once and no keyword string is kept: a store hashes its content's whole
vocabulary in one call, and :meth:`BloomHasher.positions` reads one row.

Paper constants: with |K_max| = 1,000 keywords and k = 8 hash functions, the
minimum-false-positive filter length is m = ceil(1000 * 8 / ln 2) = 11,542
bits (= 1.43 KB), giving p_min = (1/2)^8 ~ 0.39%.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

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

    A hasher given a ``content`` index (a store builds its own) keeps a
    keyword-position table keyed by that index's keyword ids: each keyword
    it has hashed is one row of :attr:`table`, and :meth:`rows` finds an
    id's row, hashing the ids it does not hold yet into new rows.  A
    store's bootstrap hashes its content's vocabulary in one call; its
    content changes and the query terms of a trace replay, mapped to ids,
    then read rows.  A term no document has -- and every term, without a
    content index -- is hashed on the spot and not kept.
    """

    def __init__(self, m: int = PAPER_M, k: int = PAPER_K, content=None) -> None:
        if m < 8:
            raise ValueError(f"filter length too small: {m}")
        if k < 1:
            raise ValueError(f"need at least one hash function, got {k}")
        if (k + 1) * m > np.iinfo(np.int64).max:
            raise ValueError(f"(k + 1) * m must fit in int64, got k={k}, m={m}")
        self.m = m
        self.k = k
        self.content = content
        # Keyword id -> table row (-1: not hashed yet), grown as ids come.
        self._row = np.empty(0, dtype=np.int64)
        # Rows in use: the first self._used; doubled when full.
        self._table = np.empty((0, k), dtype=np.int64)
        self._used = 0
        # The rows ``positions`` has read, as tuples: a query reads a few
        # terms, and a tuple lookup beats an array gather at that size.
        self._tuples: Dict[int, Tuple[int, ...]] = {}

    def positions_of(self, terms: Sequence[str]) -> np.ndarray:
        """``(len(terms), k)`` int64: row ``i`` holds the bit positions of
        ``terms[i]``, in hash-function order."""
        digests = b"".join(
            [
                hashlib.blake2b(term.encode("utf-8"), digest_size=16).digest()
                for term in terms
            ]
        )
        halves = np.frombuffer(digests, dtype="<u8").reshape(-1, 2)
        m = np.uint64(self.m)
        a = (halves[:, 0] % m).astype(np.int64)
        # Double hashing; force b odd so the stride cycles through positions.
        b = ((halves[:, 1] | np.uint64(1)) % m).astype(np.int64)
        return (a[:, None] + np.arange(self.k) * b[:, None]) % self.m

    @property
    def table(self) -> np.ndarray:
        """``(keywords hashed so far, k)``: row ``r`` is the positions of the
        keyword id whose :meth:`rows` entry is ``r``."""
        return self._table[: self._used]

    def rows(self, keys: Sequence[int]) -> np.ndarray:
        """The :attr:`table` row of each of the keyword ids ``keys``; the
        distinct ids not in the table yet are hashed once, in first-seen
        order and one :meth:`positions_of` call over their strings, into
        new rows."""
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) and keys.max() >= len(self._row):
            grown = np.full(max(int(keys.max()) + 1, 2 * len(self._row)), -1, np.int64)
            grown[: len(self._row)] = self._row
            self._row = grown
        new = list(dict.fromkeys(keys[self._row[keys] < 0].tolist()))
        if new:
            used = self._used
            if used + len(new) > len(self._table):
                grown = np.empty((max(used + len(new), 2 * used), self.k), np.int64)
                grown[:used] = self._table[:used]
                self._table = grown
            self._table[used : used + len(new)] = self.positions_of(
                self.content.keywords(new)
            )
            self._row[new] = np.arange(used, used + len(new))
            self._used = used + len(new)
        return self._row[keys]

    def positions(self, term: str) -> Tuple[int, ...]:
        """The ``k`` bit positions keyword ``term`` maps to: its table row,
        or hashed on the spot for a term no document has."""
        key: Optional[int] = None
        if self.content is not None:
            key = self.content.keyword_id(term)
        if key is None:
            return tuple(self.positions_of([term])[0].tolist())
        pos = self._tuples.get(key)
        if pos is None:
            (row,) = self.rows((key,))
            pos = self._tuples[key] = tuple(self._table[row].tolist())
        return pos

    def positions_array(self, terms: Iterable[str]) -> np.ndarray:
        """Unique bit positions for a set of terms, ascending."""
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
