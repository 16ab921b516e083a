"""Tests for overlay topology generators."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.network.overlay import Overlay
from repro.network.topology import (
    OverlayTopology,
    build_topology,
    crawled_topology,
    powerlaw_degree_sequence,
    powerlaw_topology,
    random_topology,
)
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams


def rng(seed=0):
    return np.random.default_rng(seed)


def average_degree(topo):
    return float(topo.degrees().mean())


def is_connected(topo):
    u, v = topo.edges.T
    graph = csr_matrix((np.ones(len(u)), (u, v)), shape=(topo.n, topo.n))
    return connected_components(graph, directed=False)[0] == 1


class TestOverlayTopology:
    def test_validation_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            OverlayTopology(
                name="x",
                n=3,
                edges=np.array([[2, 1]]),  # not canonical
                physical_ids=np.arange(3),
            )
        with pytest.raises(ValueError):
            OverlayTopology(
                name="x",
                n=3,
                edges=np.array([[0, 3]]),  # out of range
                physical_ids=np.arange(3),
            )
        with pytest.raises(ValueError):
            OverlayTopology(
                name="x", n=3, edges=np.empty((0, 2), dtype=np.int64),
                physical_ids=np.arange(2),
            )

    def test_validation_rejects_repeated_edges(self):
        """Each walk row holds a neighbour once, so a topology may list an
        edge once."""
        with pytest.raises(ValueError, match=r"edge \(1, 2\) appears more than once"):
            OverlayTopology(
                name="x",
                n=4,
                edges=np.array([[1, 2], [0, 3], [1, 2]]),
                physical_ids=np.arange(4),
            )

    def test_degrees_and_average(self):
        topo = OverlayTopology(
            name="tri",
            n=3,
            edges=np.array([[0, 1], [1, 2], [0, 2]]),
            physical_ids=np.arange(3),
        )
        assert list(topo.degrees()) == [2, 2, 2]
        assert average_degree(topo) == pytest.approx(2.0)
        assert is_connected(topo)

    def test_adjacency_sorted(self):
        topo = OverlayTopology(
            name="star",
            n=4,
            edges=np.array([[0, 3], [0, 1], [0, 2]]),
            physical_ids=np.arange(4),
        )
        overlay = Overlay(topo)
        assert sorted(overlay.live_neighbors(0)[0].tolist()) == [1, 2, 3]
        assert overlay.live_neighbors(1)[0].tolist() == [0]


class TestRandomTopology:
    def test_average_degree_close_to_target(self):
        topo = random_topology(500, avg_degree=5.0, rng=rng())
        assert average_degree(topo) == pytest.approx(5.0, rel=0.02)

    def test_connected(self):
        for seed in range(3):
            topo = random_topology(200, avg_degree=3.0, rng=rng(seed))
            assert is_connected(topo)

    def test_no_self_loops_or_duplicates(self):
        topo = random_topology(100, avg_degree=5.0, rng=rng())
        assert np.all(topo.edges[:, 0] < topo.edges[:, 1])
        as_tuples = {tuple(e) for e in topo.edges}
        assert len(as_tuples) == len(topo.edges)

    def test_deterministic_for_seed(self):
        a = random_topology(100, rng=rng(4))
        b = random_topology(100, rng=rng(4))
        assert np.array_equal(a.edges, b.edges)

    def test_too_dense_rejected(self):
        with pytest.raises(ValueError):
            random_topology(4, avg_degree=10.0, rng=rng())

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            random_topology(1, rng=rng())


class TestPowerlawDegreeSequence:
    def test_mean_matches_target(self):
        degrees = powerlaw_degree_sequence(2000, 5.0, -0.74, rng())
        assert degrees.mean() == pytest.approx(5.0, abs=0.05)

    def test_sum_is_even(self):
        degrees = powerlaw_degree_sequence(501, 5.0, -0.74, rng())
        assert degrees.sum() % 2 == 0

    def test_minimum_degree_respected(self):
        degrees = powerlaw_degree_sequence(1000, 5.0, -0.74, rng())
        assert degrees.min() >= 1

    def test_heavy_tail_for_steep_exponent(self):
        shallow = powerlaw_degree_sequence(3000, 3.35, -0.74, rng(1))
        steep = powerlaw_degree_sequence(3000, 3.35, -1.4, rng(1))
        # Steeper exponent -> more mass at degree 1, longer tail.
        assert (steep == 1).mean() > (shallow == 1).mean()
        assert steep.max() >= shallow.max()

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(100, 1.0, -0.74, rng())


class TestPowerlawTopology:
    def test_average_degree(self):
        topo = powerlaw_topology(1000, avg_degree=5.0, rng=rng())
        # Configuration model drops loops/duplicate edges; allow 5% slack.
        assert average_degree(topo) == pytest.approx(5.0, rel=0.05)

    def test_connected(self):
        topo = powerlaw_topology(500, rng=rng(2))
        assert is_connected(topo)

    def test_degree_distribution_skewed(self):
        topo = powerlaw_topology(2000, rng=rng())
        degrees = topo.degrees()
        # alpha=-0.74 with mean 5 calibrates to k_max ~ 14: a fat right tail
        # plus a large mass of degree-1 nodes, unlike the random overlay.
        assert degrees.max() > 2 * degrees.mean()
        random_deg = random_topology(2000, avg_degree=5.0, rng=rng(1)).degrees()
        assert (degrees == 1).mean() > 3 * max((random_deg == 1).mean(), 1e-3)


class TestCrawledTopology:
    def test_average_degree_335(self):
        topo = crawled_topology(2000, rng=rng())
        assert average_degree(topo) == pytest.approx(3.35, rel=0.06)

    def test_connected(self):
        topo = crawled_topology(500, rng=rng(3))
        assert is_connected(topo)

    def test_majority_low_degree(self):
        topo = crawled_topology(2000, rng=rng())
        degrees = topo.degrees()
        assert (degrees <= 2).mean() > 0.35  # leaf-heavy shape


class TestBuildTopology:
    def test_by_name(self):
        for name in ("random", "powerlaw", "crawled"):
            topo = build_topology(name, 200, rng=rng())
            assert topo.name == name
            assert topo.n == 200

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology("chord", 100, rng=rng())

    def test_physical_placement(self):
        params = TransitStubParams(
            n_transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
            stub_nodes_per_domain=30,
        )
        net = TransitStubNetwork(params, seed=0)
        topo = build_topology("random", 100, rng=rng(), network=net)
        assert len(np.unique(topo.physical_ids)) == 100
        assert topo.physical_ids.max() < net.n_nodes

    def test_placement_too_large(self):
        params = TransitStubParams(
            n_transit_domains=1,
            transit_nodes_per_domain=2,
            stub_domains_per_transit=1,
            stub_nodes_per_domain=5,
        )
        net = TransitStubNetwork(params, seed=0)
        with pytest.raises(ValueError):
            build_topology("random", 100, rng=rng(), network=net)
