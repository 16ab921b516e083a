"""Wire-format sizes of filter payloads (paper Section III-B).

The paper transmits the *smaller* of two encodings of a content filter:

* the raw bitmap -- ``ceil(m / 8)`` bytes (1.43 KB at m = 11,542);
* the sparse list of set-bit indices -- "a collection of 2-tuples (i, x)...
  Only the first number in each tuple is transmitted", i.e. one index per
  set bit.  Indices fit in 2 bytes because m < 2^16.

Patch ads are always the sparse form: a list of changed bit positions.

These helpers centralise the byte arithmetic so the ledger and the ad
classes agree exactly on every message size.
"""

from __future__ import annotations

import math

__all__ = [
    "BYTES_PER_INDEX",
    "compressed_filter_size",
    "patch_size",
    "raw_bitmap_size",
    "sparse_size",
]

#: Bytes per transmitted bit index; m = 11,542 < 65,536, so 2 bytes suffice.
BYTES_PER_INDEX = 2


def raw_bitmap_size(m_bits: int) -> int:
    """Size of the uncompressed bitmap in bytes."""
    if m_bits < 1:
        raise ValueError("filter length must be positive")
    return math.ceil(m_bits / 8)


def sparse_size(n_set_bits: int) -> int:
    """Size of the sparse set-bit-index encoding in bytes."""
    if n_set_bits < 0:
        raise ValueError("negative set-bit count")
    return n_set_bits * BYTES_PER_INDEX


def compressed_filter_size(n_set_bits: int, m_bits: int) -> int:
    """Bytes on the wire for a full-ad filter: min(raw bitmap, sparse list).

    Free-riders have a null filter (0 set bits) and pay 0 payload bytes.
    """
    return min(raw_bitmap_size(m_bits), sparse_size(n_set_bits))


def patch_size(n_changed_bits: int) -> int:
    """Bytes on the wire for a patch ad's payload (changed-bit list)."""
    if n_changed_bits < 0:
        raise ValueError("negative changed-bit count")
    return n_changed_bits * BYTES_PER_INDEX
