"""Packed bit-matrix over all source filters for vectorised match tests.

Every ASAP lookup asks, for each cached ad, "does this filter contain all
query-term positions?"  Done per-ad in Python that is the simulator's
bottleneck; done once globally it is a handful of NumPy gathers.  The
:class:`FilterMatrix` keeps one packed column (m/8 bytes) per filter --
14 MB for 10,000 sources at m = 11,542 -- stored position-major
(``[byte, filter]``), so ``match_all(positions)`` reads one contiguous run
per queried bit and answers for *all* filters simultaneously.  Per-query
work is O(n_filters * n_positions) byte-ops, entirely inside NumPy.

Columns ``0 .. n_sources - 1`` are the sources' *current* filters.  A
cache that missed a patch still holds the filter it was sent, so a
superseded version is not dropped: :meth:`FilterMatrix.snapshot` copies a
column aside before a patch flips its bits, and ``match_all`` answers for
those history columns, numbered on from ``n_sources``, in the same vector.
Which ``(source, version)`` a history column holds is the caller's record
(:class:`repro.asap.store.SourceFilterStore`); on the paper's ASAP(RW) cell
a lookup reads 227 of them (``BENCH_SCALEUP.json``).  History lives in an
array of its own, doubled when full, so growing it never copies the
current filters (peak RSS is a gated metric).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bloom.hashing import BloomHasher

__all__ = ["FilterMatrix"]

#: History columns allocated by the first snapshot; doubled when full.
_FIRST_HISTORY = 16


class FilterMatrix:
    """One packed filter column per source, then one per superseded version;
    vectorised all-filters match tests."""

    def __init__(self, n_sources: int, hasher: BloomHasher) -> None:
        if n_sources < 0:
            raise ValueError("negative source count")
        self.hasher = hasher
        self.n_sources = n_sources
        self._n_bytes = (hasher.m + 7) // 8
        self._cols = np.zeros((self._n_bytes, n_sources), dtype=np.uint8)
        self._history = np.zeros((self._n_bytes, 0), dtype=np.uint8)
        self.n_columns = n_sources  # in use: sources, then snapshots

    def _checked(self, positions: Sequence[int]) -> np.ndarray:
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size and (pos.min() < 0 or pos.max() >= self.hasher.m):
            raise ValueError("bit position out of range")
        return pos

    # ------------------------------------------------------------- updates
    def set_columns(
        self, first: int, count: int, sources: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Replace the filters of sources ``first .. first + count - 1`` with
        exactly the bits the pairs set -- row ``i`` of ``positions`` is bits
        of source ``sources[i]`` -- and return their set-bit counts.

        The vectorised *add* primitive: with the matrix as the authoritative
        current-filter store, bootstrapping a block of sources is one
        scatter of their keyword positions into a ``(count, m)`` bit block
        and one packed write -- no per-source filter object.
        """
        pos = self._checked(positions)
        local = np.asarray(sources, dtype=np.int64) - first
        if local.size and (local.min() < 0 or local.max() >= count):
            raise ValueError(f"source outside {first} .. {first + count - 1}")
        bits = np.zeros((count, self.hasher.m), dtype=bool)
        bits[local[:, None], pos] = True
        packed = np.packbits(bits, axis=1, bitorder="little")
        self._cols[:, first : first + count] = packed.T
        return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)

    def set_row_positions(self, source: int, positions: Sequence[int]) -> None:
        """Replace ``source``'s filter with exactly the given set positions
        (the one-source case of :meth:`set_columns`)."""
        self.set_columns(
            source, 1, np.array([source]), np.asarray(positions).reshape(1, -1)
        )

    def flip_bits(self, source: int, positions: Sequence[int]) -> None:
        """Flip the given bit positions of ``source``'s filter (patch apply)."""
        pos = self._checked(positions)
        # Positions are unique within a patch, so XOR per position is safe;
        # accumulate per byte to handle several positions in one byte.
        np.bitwise_xor.at(
            self._cols[:, source], pos >> 3, (1 << (pos & 7)).astype(np.uint8)
        )

    def snapshot(self, source: int) -> int:
        """Copy ``source``'s current filter into a new history column and
        return that column's index (the next one after those in use)."""
        column = self.n_columns
        used = column - self.n_sources
        if used == self._history.shape[1]:
            grown = np.zeros(
                (self._n_bytes, 2 * used or _FIRST_HISTORY), dtype=np.uint8
            )
            grown[:, :used] = self._history
            self._history = grown
        self._history[:, used] = self._cols[:, source]
        self.n_columns = column + 1
        return column

    # -------------------------------------------------------------- queries
    def _column(self, column: int) -> np.ndarray:
        """The packed bytes of a current filter or of a snapshot."""
        if column < self.n_sources:
            return self._cols[:, column]
        return self._history[:, column - self.n_sources]

    def row_bits(self, source: int) -> np.ndarray:
        """Unpacked boolean bit array of one source (or snapshot column)."""
        return np.unpackbits(self._column(source), bitorder="little")[
            : self.hasher.m
        ].astype(bool)

    def match_all(self, positions: np.ndarray) -> np.ndarray:
        """Boolean vector over every column in use -- the ``n_sources``
        current filters, then the snapshots: which have ALL ``positions`` set.

        An empty position set matches every filter (vacuous truth), which
        the callers treat as "no query terms" and reject earlier.
        """
        pos = self._checked(positions)
        rows, masks = pos >> 3, (1 << (pos & 7)).astype(np.uint8)[:, None]
        n = self.n_sources
        match = np.empty(self.n_columns, dtype=bool)
        history = self._history[:, : self.n_columns - n]
        for cols, out in ((self._cols, match[:n]), (history, match[n:])):
            # (n_positions, n_filters): one contiguous run per queried bit.
            np.all(cols[rows] & masks == masks, axis=0, out=out)
        return match
