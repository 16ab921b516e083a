"""Bloom-filter machinery for ad content summaries (paper Section III-B).

ASAP summarises a peer's shared keywords in a fixed-length Bloom filter
(m = 11,542 bits, k = 8 -- sized for |K_max| = 1,000 keywords at the
minimum false-positive rate of 0.39%).  This subpackage provides:

* :mod:`repro.bloom.hashing` -- the universal hash family all peers agree on;
* :mod:`repro.bloom.matrix` -- a packed bit-matrix with one column per
  source filter (and per superseded version of one) enabling vectorised
  "which sources match this query" tests, the hot path of every ASAP lookup
  in the simulator.  A source's column is the only copy of its filter: the
  counts of the paper's counting filter are the content index's document
  sets (:mod:`repro.asap.store`);
* :mod:`repro.bloom.compressed` -- wire-format sizes: the sparse
  "(i, x)-tuples, only i transmitted" encoding for peers with few keywords,
  and patch (changed-bit list) encoding for incremental updates.

The one-object-per-filter plain and counting filters the matrix is tested
against live in ``tests/oracles/bloom.py``.
"""

from repro.bloom.compressed import compressed_filter_size, patch_size
from repro.bloom.hashing import BloomHasher, PAPER_K, PAPER_M, optimal_bits
from repro.bloom.matrix import FilterMatrix

__all__ = [
    "BloomHasher",
    "FilterMatrix",
    "PAPER_K",
    "PAPER_M",
    "compressed_filter_size",
    "optimal_bits",
    "patch_size",
]
