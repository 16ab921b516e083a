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

This module memoises the pair on ``(TransitStubParams, seed)``:

* repeated runs in one process share a single substrate instance;
* worker processes forked by :mod:`repro.experiments.parallel` inherit the
  parent's already-built substrate through copy-on-write memory instead of
  rebuilding it per cell;
* results are bit-identical to uncached construction, because lazy
  materialisation is deterministic regardless of access order (each stub
  domain draws from its own named substream).

The cache is a :func:`functools.lru_cache` of 8 entries, so replication
sweeps over many seeds cannot grow memory without limit;
``get_substrate.cache_info()`` has its hit/miss counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.network.latency import LatencyModel
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams

__all__ = ["Substrate", "clear_substrate_cache", "get_substrate"]


@dataclass
class Substrate:
    """One physical internet and its latency oracle, shared across runs."""

    params: TransitStubParams
    seed: int
    network: TransitStubNetwork
    latency: LatencyModel


@lru_cache(maxsize=8)
def _build(params: TransitStubParams, seed: int) -> Substrate:
    network = TransitStubNetwork(params=params, seed=seed)
    return Substrate(
        params=params, seed=seed, network=network, latency=LatencyModel(network)
    )


def get_substrate(
    params: Optional[TransitStubParams] = None, seed: int = 0
) -> Substrate:
    """Shared (network, latency) pair for the given physical parameters."""
    return _build(params or TransitStubParams(), int(seed))


get_substrate.cache_info = _build.cache_info

#: Reset the process-wide cache (tests and memory-sensitive callers).
clear_substrate_cache = _build.cache_clear
