"""Weighted draws from cached probability tables.

Workload synthesis draws from a handful of fixed discrete distributions
tens of thousands of times (class keywords per document, a query's target
among a class's documents, a node's interest classes).  ``Generator.choice``
rebuilds and re-validates the CDF on every call; here a distribution is a
:class:`Table` built and validated once, and a draw is ``rng.random`` plus a
binary search.  Both draw functions consume the generator exactly as
``Generator.choice`` does and return exactly what it returns, so seeded
workloads are unchanged (``tests/test_workload_sampling.py`` pins results
and generator state against the installed numpy).
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

__all__ = ["Table", "draw_distinct", "draw_one", "table", "zipf_table"]


class Table(NamedTuple):
    """A discrete distribution (read-only arrays)."""

    p: np.ndarray  # probabilities
    cdf: np.ndarray  # their cumulative sum, normalised to end at 1.0
    support: int  # entries with non-zero probability


def _cdf(p: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def table(weights: np.ndarray) -> Table:
    """The distribution proportional to ``weights``."""
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum() if weights.ndim == 1 and len(weights) else 0.0
    if not (np.isfinite(total) and total > 0 and (weights >= 0).all()):
        raise ValueError(
            "weights must be a non-empty 1-d array of non-negative finite "
            "numbers with a positive sum"
        )
    p = weights / total
    cdf = _cdf(p)
    p.setflags(write=False)
    cdf.setflags(write=False)
    return Table(p, cdf, int(np.count_nonzero(p)))


def zipf_table(n: int, exponent: float) -> Table:
    """Rank-Zipf over ``n`` items, ``P(i) ~ (i + 1) ** -exponent``.  Not
    cached here: synthesis builds its one vocabulary table per call, and
    ``generate_trace`` keeps its per-class-count tables for its own call,
    so no table outlives the workload that drew from it."""
    return table(np.arange(1, n + 1, dtype=np.float64) ** -exponent)


def draw_one(rng: np.random.Generator, dist: Table) -> int:
    """``rng.choice(len(dist.p), p=dist.p)``: one uniform, one search."""
    return int(dist.cdf.searchsorted(rng.random(), side="right"))


def draw_distinct(rng: np.random.Generator, dist: Table, size: int) -> List[int]:
    """``rng.choice(len(dist.p), size=size, replace=False, p=dist.p)``, as a list.

    numpy's algorithm: draw ``size`` uniforms through the CDF and keep the
    distinct indices in order of first appearance; while short, zero the
    kept indices' probabilities, renormalise and draw the shortfall again.
    """
    if not 0 <= size <= dist.support:
        raise ValueError(
            f"cannot draw {size} distinct indices from {dist.support} "
            "with non-zero probability"
        )
    cdf = dist.cdf
    found: List[int] = []
    while len(found) < size:
        uniforms = rng.random(size - len(found))
        if found:
            p = dist.p.copy()
            p[found] = 0
            cdf = _cdf(p)
        found += dict.fromkeys(cdf.searchsorted(uniforms, side="right").tolist())
    return found
