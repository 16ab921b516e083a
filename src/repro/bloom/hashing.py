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
expression with no overflow.  A hasher keeps the rows it has computed as
one keyword-position table (:meth:`BloomHasher.rows`), so each distinct
keyword is hashed once: a store hashes its content's whole vocabulary in
one call, and :meth:`BloomHasher.positions` reads one row.

Paper constants: with |K_max| = 1,000 keywords and k = 8 hash functions, the
minimum-false-positive filter length is m = ceil(1000 * 8 / ln 2) = 11,542
bits (= 1.43 KB), giving p_min = (1/2)^8 ~ 0.39%.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Sequence, Tuple

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

    An instance keeps a keyword-position table: each term it has hashed is
    one row of :attr:`table`, and :meth:`rows` finds a term's row, hashing
    the terms it does not hold yet into new rows.  A store's bootstrap
    hashes its content's vocabulary in one call; its content changes and
    the query terms of a trace replay, drawn from that vocabulary, then
    read rows.
    """

    def __init__(self, m: int = PAPER_M, k: int = PAPER_K) -> None:
        if m < 8:
            raise ValueError(f"filter length too small: {m}")
        if k < 1:
            raise ValueError(f"need at least one hash function, got {k}")
        if (k + 1) * m > np.iinfo(np.int64).max:
            raise ValueError(f"(k + 1) * m must fit in int64, got k={k}, m={m}")
        self.m = m
        self.k = k
        self._row: Dict[str, int] = {}
        # Rows in use: the first len(self._row); doubled when full.
        self._table = np.empty((0, k), dtype=np.int64)
        # The rows ``positions`` has read, as tuples: a query reads a few
        # terms, and a tuple lookup beats an array gather at that size.
        self._tuples: Dict[str, Tuple[int, ...]] = {}

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
        """``(terms hashed so far, k)``: row ``r`` is the positions of the
        term whose :meth:`rows` entry is ``r``."""
        return self._table[: len(self._row)]

    def rows(self, terms: Sequence[str]) -> np.ndarray:
        """The :attr:`table` row of each of ``terms``; the distinct terms
        not in the table yet are hashed once, in one :meth:`positions_of`
        call, into new rows."""
        row = self._row
        new = [term for term in dict.fromkeys(terms) if term not in row]
        if new:
            used = len(row)
            if used + len(new) > len(self._table):
                grown = np.empty((max(used + len(new), 2 * used), self.k), np.int64)
                grown[:used] = self._table[:used]
                self._table = grown
            self._table[used : used + len(new)] = self.positions_of(new)
            row.update(zip(new, range(used, used + len(new))))
        return np.fromiter(map(row.__getitem__, terms), dtype=np.int64, count=len(terms))

    def positions(self, term: str) -> Tuple[int, ...]:
        """The ``k`` bit positions keyword ``term`` maps to: its table row."""
        pos = self._tuples.get(term)
        if pos is None:
            (row,) = self.rows((term,))
            pos = self._tuples[term] = tuple(self._table[row].tolist())
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
