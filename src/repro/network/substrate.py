"""Process-wide cache of the physical substrate (network + latency model).

Every experiment cell in a sweep replays its trace over the *same* GT-ITM
transit-stub internet: the physical network is fully determined by its
:class:`~repro.network.transit_stub.TransitStubParams` and root seed, and
both :class:`~repro.network.transit_stub.TransitStubNetwork` and
:class:`~repro.network.latency.LatencyModel` are immutable after
construction in every externally observable way (their only mutation is
lazy, order-independent materialisation of per-domain graphs and per-node
anchor/offset entries, each derived from named RNG substreams).  Rebuilding
them per run therefore repeats identical work -- transit-core APSP, stub
domain hop matrices, node registration (~0.15 s for the ~1,000 domains of a
2,000-peer cell; docs/PERFORMANCE.md, "Set-up path").

This module memoises the pair behind a content-addressed key
``(TransitStubParams, seed)``:

* repeated runs in one process share a single substrate instance;
* worker processes forked by :mod:`repro.experiments.parallel` inherit the
  parent's already-built substrate through copy-on-write memory instead of
  rebuilding it per cell;
* results are bit-identical to uncached construction, because lazy
  materialisation is deterministic regardless of access order (each stub
  domain draws from its own named substream).

The cache is bounded (LRU) so replication sweeps over many seeds cannot
grow memory without limit, and instrumented: :func:`substrate_cache_stats`
exposes hit/miss/eviction counters for tests and benchmarks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.network.latency import LatencyModel
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams

__all__ = [
    "Substrate",
    "SubstrateCache",
    "SubstrateCacheStats",
    "clear_substrate_cache",
    "get_substrate",
    "substrate_cache_stats",
]


@dataclass
class Substrate:
    """One physical internet and its latency oracle, shared across runs."""

    params: TransitStubParams
    seed: int
    network: TransitStubNetwork
    latency: LatencyModel


@dataclass(frozen=True)
class SubstrateCacheStats:
    """Counters of cache effectiveness since the last ``clear()``."""

    hits: int
    misses: int
    evictions: int
    size: int

    @property
    def builds(self) -> int:
        """Substrates actually constructed (== misses)."""
        return self.misses


class SubstrateCache:
    """Bounded LRU cache of :class:`Substrate` keyed on (params, seed)."""

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[TransitStubParams, int], Substrate]" = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self, params: Optional[TransitStubParams] = None, seed: int = 0
    ) -> Substrate:
        """The cached substrate for ``(params, seed)``, building on miss."""
        params = params or TransitStubParams()
        key = (params, int(seed))
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return cached
            self._misses += 1
        # Build outside the lock: construction is the expensive part, and a
        # rare duplicate build is harmless (both are bit-identical).
        network = TransitStubNetwork(params=params, seed=int(seed))
        substrate = Substrate(
            params=params, seed=int(seed), network=network,
            latency=LatencyModel(network),
        )
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = substrate
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
        return substrate

    def stats(self) -> SubstrateCacheStats:
        with self._lock:
            return SubstrateCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
            )

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0


#: The process-wide cache every run shares (and forked workers inherit).
_CACHE = SubstrateCache()


def get_substrate(
    params: Optional[TransitStubParams] = None, seed: int = 0
) -> Substrate:
    """Shared (network, latency) pair for the given physical parameters."""
    return _CACHE.get(params, seed)


def substrate_cache_stats() -> SubstrateCacheStats:
    """Hit/miss/eviction counters of the process-wide cache."""
    return _CACHE.stats()


def clear_substrate_cache() -> None:
    """Reset the process-wide cache (tests and memory-sensitive callers)."""
    _CACHE.clear()
