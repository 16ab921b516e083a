"""Differential tests: the epoch's CSR and its rows (``live_neighbors``)
vs the wired edges filtered by liveness, under churn."""

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import random_topology


@pytest.fixture
def lats():
    return np.random.default_rng(1).uniform(1.0, 50.0, size=10_000)


@pytest.fixture
def overlay(lats):
    topo = random_topology(60, avg_degree=4.0, rng=np.random.default_rng(0))
    return Overlay(topo, edge_latencies_ms=lats[: len(topo.edges)])


def wired_live_neighbors(overlay, lats, node):
    """``[(neighbour, latency)]`` of ``node`` from ``topology.edges``, the
    fixture's per-edge latencies and the live mask alone."""
    live = overlay.live_mask
    if not live[node]:
        return []
    return sorted(
        (int(v) if u == node else int(u), float(lat))
        for (u, v), lat in zip(overlay.topology.edges, lats)
        if node in (u, v) and live[u] and live[v]
    )


def assert_views_agree(overlay, lats):
    """Every CSR row, and ``live_neighbors`` reading it, is the node's wired
    neighbours that are live, latencies edge-aligned; an offline node's row
    is empty (the CSR covers live-to-live edges only)."""
    csr = overlay.walk_csr()
    for node in range(overlay.n):
        lo, hi = csr.indptr[node], csr.indptr[node + 1]
        row = sorted(zip(csr.indices[lo:hi].tolist(), csr.lats[lo:hi].tolist()))
        assert row == wired_live_neighbors(overlay, lats, node), f"node {node}"
        nbrs, nl = overlay.live_neighbors(node)
        assert sorted(zip(nbrs.tolist(), nl.tolist())) == row


class TestLiveCsr:
    def test_agrees_when_all_live(self, overlay, lats):
        assert_views_agree(overlay, lats)

    def test_agrees_under_churn(self, overlay, lats):
        rng = np.random.default_rng(2)
        for node in rng.choice(60, size=20, replace=False):
            overlay.leave(int(node))
        assert_views_agree(overlay, lats)
        # Offline nodes expose no outgoing edges in the CSR.
        assert not overlay.walk_csr().deg[~overlay.live_mask].any()

    def test_cache_invalidation_on_epoch(self, overlay, lats):
        a = overlay.walk_csr()
        assert overlay.walk_csr() is a  # cache hit within an epoch
        overlay.leave(0)
        assert overlay.walk_csr() is not a
        assert_views_agree(overlay, lats)

    def test_rejoin_restores_edges(self, overlay):
        before = overlay.walk_csr()
        overlay.leave(5)
        overlay.join(5)
        after = overlay.walk_csr()
        assert np.array_equal(before.indptr, after.indptr)
        assert np.array_equal(before.indices, after.indices)
        assert np.array_equal(before.lats, after.lats)

    def test_total_directed_edges(self, overlay):
        csr = overlay.walk_csr()
        live = overlay.live_mask
        edges = overlay.topology.edges
        n_live_edges = int(np.count_nonzero(live[edges[:, 0]] & live[edges[:, 1]]))
        assert csr.indptr[-1] == len(csr.indices) == 2 * n_live_edges
