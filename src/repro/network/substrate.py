"""Process-wide caches of what every cell of a sweep shares.

A cell is one trace replay of one algorithm on one overlay.  Two of its
inputs do not depend on either, and each is rebuilt identically by every
cell that asks for it:

* the **physical substrate** -- the GT-ITM transit-stub internet and its
  latency model, fully determined by its
  :class:`~repro.network.transit_stub.TransitStubParams` and root seed.
  Both :class:`~repro.network.transit_stub.TransitStubNetwork` and
  :class:`~repro.network.latency.LatencyModel` are immutable after
  construction in every externally observable way (their only mutation is
  lazy, order-independent materialisation of per-domain graphs and
  per-node anchor/offset entries, each derived from named RNG
  substreams).  Building one repeats the transit-core APSP, stub-domain
  gateway rows and node registration (~0.07 s for the ~1,000 domains of a
  2,000-peer cell; docs/PERFORMANCE.md, "Set-up path");
* the **workload** -- the eDonkey-like content snapshot and the query
  trace over it, a pure function of ``(EdonkeyParams, TraceParams, seed)``
  drawn from the seed's ``"content"`` and ``"trace"`` substreams.  Every
  algorithm x overlay cell of an ``ExperimentScale`` has the same three
  values, as do Figures 2 and 3, so a grid synthesises each seed's
  workload once instead of once per cell.  The cached snapshot is shared
  read-only (the content index's int32 columns and ``free_rider`` -- made
  non-writeable by :meth:`~repro.workload.content.ContentIndex.freeze` and
  ``setflags`` -- the interests and the trace events); replay changes
  placements, so a cell replays on its own
  :meth:`~repro.workload.content.ContentIndex.fork`, which shares those
  columns and keeps its own short change log.

Sharing rules, for both:

* repeated runs in one process share a single instance;
* worker processes forked by :mod:`repro.experiments.parallel` inherit the
  parent's already-built entries through copy-on-write memory instead of
  rebuilding them per cell;
* results are bit-identical to uncached construction: lazy substrate
  materialisation is deterministic regardless of access order (each stub
  domain draws from its own named substream), and a workload's substreams
  are named, so no other draw in the cell moves.

Each cache is a :func:`functools.lru_cache`, so replication sweeps over
many seeds cannot grow memory without limit: 8 substrates, and 2
workloads -- a campaign's grid and its ablations each replay one, and a
paper-scale workload raises RSS by ~48 MB (21.7 MB of content, 25.9 MB
more with its trace; BENCH_SCALEUP.json, ``paper_workload``).  ``get_substrate.cache_info()`` and
``get_workload.cache_info()`` have their hit/miss counters, and
:func:`clear_substrate_cache` empties both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.network.latency import LatencyModel
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams
from repro.sim.random import RandomStreams
from repro.workload.edonkey import ContentDistribution, EdonkeyParams, synthesize_content
from repro.workload.generator import TraceParams, generate_trace
from repro.workload.trace import Trace

__all__ = ["Substrate", "clear_substrate_cache", "get_substrate", "get_workload"]


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


@lru_cache(maxsize=2)
def _build_workload(
    edonkey: EdonkeyParams, trace: TraceParams, seed: int
) -> Tuple[ContentDistribution, Trace]:
    streams = RandomStreams(seed=seed)
    content = synthesize_content(edonkey, streams.get("content"))
    events = generate_trace(content, trace, streams.get("trace"))
    content.free_rider.setflags(write=False)
    content.index.freeze()
    return content, events


def get_workload(
    edonkey: EdonkeyParams, trace: TraceParams, seed: int
) -> Tuple[ContentDistribution, Trace]:
    """Shared, read-only (content, trace) pair of one seed.

    The same draws as ``synthesize_content`` then ``generate_trace`` on
    ``RandomStreams(seed)``'s ``"content"`` and ``"trace"`` streams.  A
    caller that changes placements works on ``content.index.fork()``.
    """
    return _build_workload(edonkey, trace, int(seed))


get_workload.cache_info = _build_workload.cache_info


def clear_substrate_cache() -> None:
    """Empty both process-wide caches (tests and memory-sensitive callers)."""
    _build.cache_clear()
    _build_workload.cache_clear()
