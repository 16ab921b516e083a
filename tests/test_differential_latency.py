"""Differential test: hierarchical latency model vs flat Dijkstra.

The latency model exploits the transit-stub structure (per-domain breadth-first
hop counts + transit-core APSP + gateway decomposition).  This test materialises the
*entire* physical graph of a small configuration as an explicit edge list
-- transit edges, transit-to-gateway access links, and every intra-stub
edge (the pairs one hop apart in each domain's ``stub_hops``) -- runs
textbook Dijkstra over it, and checks the hierarchical model agrees on every
node pair.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.network.latency import LatencyModel
from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams

from tests.oracles.hops import domain_hops


def build_flat_graph(net: TransitStubNetwork) -> np.ndarray:
    """Explicit symmetric latency matrix via scipy Dijkstra."""
    p = net.params
    rows, cols, data = [], [], []

    def add(u, v, w):
        rows.extend((u, v))
        cols.extend((v, u))
        data.extend((w, w))

    # Transit core edges (stored on construction).
    for u, v, w in net._transit_edges:
        add(u, v, w)

    size = p.stub_nodes_per_domain
    for domain_id in range(p.n_stub_domains):
        first = p.n_transit + domain_id * size
        gateway, hops = domain_hops(net, domain_id)
        # Access link: transit node <-> gateway stub node.
        transit = domain_id // p.stub_domains_per_transit
        add(transit, first + gateway, p.lat_transit_stub_ms)
        # Intra-domain edges: hop distance exactly 1.
        for i, j in zip(*np.nonzero(np.triu(hops == 1))):
            add(first + int(i), first + int(j), p.lat_intra_stub_ms)

    n = p.n_nodes
    graph = csr_matrix((data, (rows, cols)), shape=(n, n))
    return dijkstra(graph, directed=False)


@pytest.fixture(scope="module")
def small():
    params = TransitStubParams(
        n_transit_domains=3,
        transit_nodes_per_domain=3,
        stub_domains_per_transit=2,
        stub_nodes_per_domain=6,
    )
    net = TransitStubNetwork(params, seed=11)
    model = LatencyModel(net)
    flat = build_flat_graph(net)
    return net, model, flat


def test_all_pairs_agree(small):
    net, model, flat = small
    n = net.n_nodes
    us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    got = model.pairwise_ms(us.ravel(), vs.ravel()).reshape(n, n)
    assert np.allclose(got, flat), (
        f"max abs diff {np.abs(got - flat).max()}"
    )


def test_scalar_queries_agree(small):
    """``Overlay.direct_latency_ms`` -- one pair through the vector path --
    over an overlay placed on every physical node."""
    net, model, flat = small
    n = net.n_nodes
    topology = OverlayTopology(
        "all", n, np.empty((0, 2), dtype=np.int64), np.arange(n)[::-1].copy()
    )
    overlay = Overlay(topology, latency=model)
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, v = rng.integers(0, n, size=2)
        assert overlay.direct_latency_ms(int(u), int(v)) == pytest.approx(
            flat[n - 1 - u, n - 1 - v]
        )
        assert overlay.direct_latency_ms(u, u) == 0.0


def test_flat_graph_is_connected(small):
    _, _, flat = small
    assert np.all(np.isfinite(flat))
