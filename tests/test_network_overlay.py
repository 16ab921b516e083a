"""Tests for the churn-aware overlay runtime."""

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology, random_topology


def make_path_overlay(n=4, **kwargs):
    """A simple path topology 0-1-2-...-(n-1)."""
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)
    topo = OverlayTopology(name="path", n=n, edges=edges, physical_ids=np.arange(n))
    return Overlay(topo, **kwargs)


class TestLiveness:
    def test_all_live_by_default(self):
        ov = make_path_overlay()
        assert ov.live_count() == 4
        assert ov.is_live(0)

    def test_initial_mask(self):
        ov = make_path_overlay(initially_live=np.array([True, False, True, True]))
        assert ov.live_count() == 3
        assert not ov.is_live(1)

    def test_initial_index_array(self):
        ov = make_path_overlay(initially_live=np.array([0, 2]))
        assert ov.live_count() == 2
        assert list(ov.live_nodes()) == [0, 2]

    def test_join_leave_cycle(self):
        ov = make_path_overlay()
        ov.leave(1)
        assert not ov.is_live(1)
        ov.join(1)
        assert ov.is_live(1)

    def test_double_leave_rejected(self):
        ov = make_path_overlay()
        ov.leave(1)
        with pytest.raises(ValueError):
            ov.leave(1)

    def test_double_join_rejected(self):
        ov = make_path_overlay()
        with pytest.raises(ValueError):
            ov.join(0)

    def test_epoch_bumps_on_churn(self):
        ov = make_path_overlay()
        e0 = ov.epoch
        ov.leave(2)
        assert ov.epoch == e0 + 1
        ov.join(2)
        assert ov.epoch == e0 + 2

    def test_next_churn_reads_the_plan_and_nothing_else(self):
        """The first planned join or leave strictly after ``now``; churn
        done by hand neither needs nor moves the plan."""
        ov = make_path_overlay()
        assert ov.next_churn(0.0) == float("inf")
        ov.plan_churn([30.0, 10.0, 20.0, 20.0])
        ov.leave(1)
        assert [ov.next_churn(t) for t in (0.0, 10.0, 15.0, 20.0, 30.0)] == [
            10.0, 20.0, 20.0, 30.0, float("inf")
        ]
        assert ov.live_count() == 3


def live_pairs(ov):
    """Directed ``(u, v)`` pairs of the epoch's CSR, row by row."""
    csr = ov.walk_csr()
    src = np.repeat(np.arange(ov.n), csr.deg)
    return list(zip(src.tolist(), csr.indices.tolist()))


class TestEdgeViews:
    def test_live_edges_both_directions(self):
        ov = make_path_overlay(n=3)
        assert set(live_pairs(ov)) == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert len(ov.walk_csr().lats) == 4

    def test_live_edges_exclude_dead_endpoint(self):
        ov = make_path_overlay(n=3)
        ov.leave(1)
        csr = ov.walk_csr()
        assert len(csr.indices) == 0 and not csr.deg.any()

    def test_live_edges_cached_within_epoch(self):
        """The one cache: the epoch's CSR is one object until the next
        churn event, whoever reads it, and nothing else is keyed on epoch."""
        ov = make_path_overlay()
        a = ov.walk_csr()
        nbrs, _ = ov.live_neighbors(1)
        assert ov.walk_csr() is a  # same object back (cache hit)
        assert nbrs.base is a.indices  # a row view, not a second structure
        ov.leave(3)
        c = ov.walk_csr()
        assert c is not a
        assert ov.live_neighbors(2)[0].tolist() == [1]

    def test_live_neighbors_filters(self):
        ov = make_path_overlay(n=4)
        ov.leave(2)
        nbrs, lats = ov.live_neighbors(1)
        assert list(nbrs) == [0]
        assert len(lats) == 1

    def test_live_neighbors_of_an_offline_node_is_empty(self):
        ov = make_path_overlay(n=4)
        ov.leave(1)
        nbrs, lats = ov.live_neighbors(1)
        assert len(nbrs) == 0 and len(lats) == 0

    def test_live_degree(self):
        ov = make_path_overlay(n=4)
        assert ov.walk_csr().deg[1] == 2
        ov.leave(0)
        assert ov.walk_csr().deg.tolist() == [0, 1, 2, 1]

    def test_default_edge_latency(self):
        ov = make_path_overlay(default_edge_latency_ms=7.0)
        assert np.all(ov.walk_csr().lats == 7.0)


class TestWithRandomTopology:
    def test_live_edge_count_shrinks_under_churn(self):
        topo = random_topology(200, avg_degree=5.0, rng=np.random.default_rng(0))
        ov = Overlay(topo)
        full = len(ov.walk_csr().indices)
        rng = np.random.default_rng(1)
        for node in rng.choice(200, size=50, replace=False):
            ov.leave(int(node))
        reduced = len(ov.walk_csr().indices)
        assert reduced < full

    def test_adjacency_latency_alignment(self):
        topo = random_topology(50, avg_degree=4.0, rng=np.random.default_rng(2))
        ov = Overlay(topo, default_edge_latency_ms=3.0)
        for u in range(50):
            nbrs, lats = ov.live_neighbors(u)
            assert len(nbrs) == len(lats)
            assert np.all(lats == 3.0)

    def test_direct_latency_without_model_is_flat(self):
        topo = random_topology(20, avg_degree=3.0, rng=np.random.default_rng(3))
        ov = Overlay(topo, default_edge_latency_ms=9.0)
        assert ov.direct_latency_ms(0, 0) == 0.0
        assert ov.direct_latency_ms(0, 5) == 9.0
        out = ov.direct_latencies_ms(0, np.array([0, 3, 7]))
        assert list(out) == [0.0, 9.0, 9.0]

    def test_direct_latencies_keep_the_orientation_they_are_asked_in(self):
        """Many to one is the scalar call receiver by receiver, one to many
        the scalar call target by target: with a latency model ``(u, v)``
        and ``(v, u)`` add the same three floats in a different order."""
        from repro.network.substrate import get_substrate
        from repro.network.topology import build_topology

        substrate = get_substrate(seed=0)
        topo = build_topology(
            "random", 300, rng=np.random.default_rng(6), network=substrate.network
        )
        ov = Overlay(topo, substrate.latency)
        others = np.arange(1, 300)
        to_one = ov.direct_latencies_ms(others, 0)
        from_one = ov.direct_latencies_ms(0, others)
        assert to_one.tolist() == [ov.direct_latency_ms(v, 0) for v in others]
        assert from_one.tolist() == [ov.direct_latency_ms(0, v) for v in others]
        assert np.allclose(to_one, from_one) and len(set(to_one.tolist())) > 10
        flat = Overlay(topo, default_edge_latency_ms=9.0)
        assert flat.direct_latencies_ms(np.array([0, 3, 7]), 3).tolist() == [9.0, 0.0, 9.0]

    def test_two_scalar_ids_broadcast_on_the_physical_network(self):
        """``direct_latencies_ms(3, 5)`` broadcasts two ids to a 0-d batch
        over the latency model, as it does over the flat default."""
        from repro.network.substrate import get_substrate
        from repro.network.topology import build_topology

        substrate = get_substrate(seed=7)
        topo = build_topology(
            "crawled", 200, rng=np.random.default_rng(7), network=substrate.network
        )
        ov = Overlay(topo, substrate.latency)
        got = ov.direct_latencies_ms(3, 5)
        assert got.shape == ()
        assert got == ov.direct_latencies_ms([3], [5])[0] == ov.direct_latency_ms(3, 5)
        assert ov.direct_latencies_ms(3, 3) == 0.0
        flat = Overlay(topo, default_edge_latency_ms=9.0)
        assert flat.direct_latencies_ms(3, 5) == 9.0

    def test_direct_latency_ignores_explicit_edge_latencies(self):
        # Explicit edge_latencies_ms describe *overlay edges* only; direct
        # (off-overlay) hops must use the flat default, not whatever
        # latency happens to sit first in the edge array.
        topo = random_topology(20, avg_degree=3.0, rng=np.random.default_rng(4))
        lats = np.linspace(50.0, 90.0, len(topo.edges))
        ov = Overlay(topo, default_edge_latency_ms=9.0, edge_latencies_ms=lats)
        assert ov.direct_latency_ms(0, 0) == 0.0
        assert ov.direct_latency_ms(0, 5) == 9.0
        out = ov.direct_latencies_ms(0, np.array([0, 3, 7]))
        assert list(out) == [0.0, 9.0, 9.0]

    def test_walk_csr_cached_per_epoch(self):
        topo = random_topology(30, avg_degree=4.0, rng=np.random.default_rng(5))
        ov = Overlay(topo, default_edge_latency_ms=3.0)
        csr1 = ov.walk_csr()
        assert ov.walk_csr() is csr1  # same epoch -> same object
        ov.leave(7)
        csr2 = ov.walk_csr()
        assert csr2 is not csr1  # churn invalidates the cache
        # The rows agree with the CSR arrays after the churn event.
        for u in range(csr2.n):
            lo, hi = csr2.indptr[u], csr2.indptr[u + 1]
            assert csr2.nbr[u] == csr2.indices[lo:hi].tolist()
            assert csr2.nbr_lat[u] == csr2.lats[lo:hi].tolist()
            assert csr2.dgf[u] == hi - lo
        assert csr2.dgf[7] == 0.0 and csr2.nbr[7] == csr2.nbr_lat[7] == []
        assert not any(7 in row for row in csr2.nbr)
        assert csr2.n == ov.n
        assert csr2.lats_positive
