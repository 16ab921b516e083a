"""Baseline query-based search algorithms (Section IV-A).

The paper compares ASAP against three representative unstructured search
schemes, all reimplemented here with the paper's parameters:

* :mod:`repro.search.flooding` -- Gnutella-style flooding, TTL = 6;
* :mod:`repro.search.random_walk` -- 5 walkers, TTL = 1024;
* :mod:`repro.search.gsa` -- the generalized search algorithm of Gkantsidis
  et al. (hybrid walk with one-hop lookahead), per-query budget 8,000.

:mod:`repro.search.base` defines the shared algorithm interface, the
message-size constants, and :class:`SearchOutcome` -- the per-query record every
figure's metrics aggregate over.
"""

from repro.search.base import SearchAlgorithm, SearchOutcome
from repro.search.flooding import FloodingSearch, flood_reach
from repro.search.gsa import GsaSearch
from repro.search.random_walk import RandomWalkSearch

__all__ = [
    "FloodingSearch",
    "GsaSearch",
    "RandomWalkSearch",
    "SearchAlgorithm",
    "SearchOutcome",
    "flood_reach",
]
