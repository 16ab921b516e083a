"""Network substrate: physical topology, latency model and P2P overlays.

The paper's evaluation (Section IV-A) runs a 10,000-peer overlay on top of a
GT-ITM transit-stub physical internet with 51,984 nodes.  This subpackage
reimplements that stack from scratch:

* :mod:`repro.network.transit_stub` -- the hierarchical physical topology
  (9 transit domains x 16 transit nodes, 9 stub domains per transit node,
  40 stub nodes per stub domain; link latencies 50/20/5/2 ms).
* :mod:`repro.network.latency` -- exact shortest-path latency between any two
  physical nodes, computed hierarchically (stub domains have no cross edges,
  so paths decompose through domain gateways and the transit core).
* :mod:`repro.network.topology` -- the three logical overlays used in the
  paper: ``random`` (avg degree 5), ``powerlaw`` (avg degree 5, alpha =
  -0.74) and ``crawled`` (Limewire-like, avg degree 3.35).
* :mod:`repro.network.overlay` -- the churn-aware overlay runtime: liveness
  and the one per-epoch CSR of the live graph every search algorithm reads.
"""

from repro.network.latency import LatencyModel
from repro.network.overlay import Overlay
from repro.network.substrate import (
    Substrate,
    clear_substrate_cache,
    get_substrate,
)
from repro.network.topology import (
    OverlayTopology,
    build_topology,
    crawled_topology,
    powerlaw_topology,
    random_topology,
)
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams

__all__ = [
    "LatencyModel",
    "Overlay",
    "OverlayTopology",
    "Substrate",
    "TransitStubNetwork",
    "TransitStubParams",
    "build_topology",
    "clear_substrate_cache",
    "crawled_topology",
    "get_substrate",
    "powerlaw_topology",
    "random_topology",
]
