"""Tests for the analytic models, cross-checked against the simulator.

``repro.analysis`` ships the two models a campaign claim reads (Bloom FPR,
one-hop round trip).  The branching-process flood reach and the occupancy
walk coverage are no claim's model -- no committed row measures either --
so they live here, as test-side models the flood kernel and the overlay's
neighbour lists are checked against.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import bloom_false_positive_rate, expected_one_hop_rtt_ms
from repro.network.latency import LatencyModel
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.network.transit_stub import TransitStubNetwork
from repro.search.flooding import flood_reach

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


def expected_flood_reach(avg_degree, ttl, n_nodes=None, excess_degree=None):
    """Nodes reached by a deduplicating flood on a random overlay.

    Branching-process estimate: hop 1 reaches d nodes; each later hop
    multiplies by the excess degree q (default d - 1, the tree assumption
    of Section III-A's arithmetic; q = d for Poisson-degree overlays).
    Capped at the system size; an upper bound once the flood wraps around.
    """
    if ttl < 0 or avg_degree < 1:
        raise ValueError("need ttl >= 0 and avg_degree >= 1")
    q = excess_degree if excess_degree is not None else avg_degree - 1.0
    reached = 0.0
    for h in range(1, ttl + 1):
        reached += avg_degree * q ** (h - 1)
        if n_nodes is not None and reached >= n_nodes - 1:
            return float(n_nodes - 1)
    return reached


def expected_walk_coverage(n_nodes, total_steps):
    """Distinct nodes visited by uniform random-walk steps: n (1 - e^{-L/n}),
    an optimistic bound (real walks revisit more)."""
    if n_nodes < 1 or total_steps < 0:
        raise ValueError("need n_nodes >= 1 and total_steps >= 0")
    return n_nodes * (1.0 - math.exp(-total_steps / n_nodes))


class TestPaperArithmetic:
    def test_section_3a_estimate(self):
        # "these requests may lead to an average of 20*(5-1)^7/24,578 ~ 13
        # query messages handled at each node per second" -- recorded, with
        # its value, in DESIGN.md.
        load = 20 * (5 - 1) ** 7 / 24_578
        assert load == pytest.approx(13.3, abs=0.05)
        recorded = re.search(r"20 · \(5 − 1\)\^7 / 24,578 ≈ ([\d.]+)", DESIGN.read_text())
        assert recorded and float(recorded[1]) == round(load, 1)

    def test_bloom_design_point(self):
        # Section III-B: n=1000, m=11542, k=8 -> ~0.39% FPR.
        fpr = bloom_false_positive_rate(1_000, 11_542, 8)
        assert fpr == pytest.approx(0.0039, abs=0.0003)

    def test_bloom_fpr_monotone_in_items(self):
        rates = [bloom_false_positive_rate(n, 11_542, 8) for n in (100, 500, 1000, 2000)]
        assert rates == sorted(rates)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bloom_false_positive_rate(10, 0, 8)
        with pytest.raises(ValueError):
            bloom_false_positive_rate(10, 100, 0)
        with pytest.raises(ValueError):
            expected_flood_reach(0.5, 6)
        with pytest.raises(ValueError):
            expected_walk_coverage(0, 10)


class TestFloodReachModel:
    def test_tree_exact(self):
        # Degree-3 tree: 3 + 3*2 + 3*4 = 21 nodes within 3 hops.
        assert expected_flood_reach(3.0, 3) == pytest.approx(21.0)

    def test_cap_at_system_size(self):
        assert expected_flood_reach(5.0, 10, n_nodes=1_000) == 999.0

    def test_excess_degree_default_is_tree_assumption(self):
        # Paper arithmetic: q = d - 1.
        assert expected_flood_reach(5.0, 2) == pytest.approx(5 + 5 * 4)

    def test_poisson_upper_bounds_simulation_in_expectation(self):
        """With the Poisson excess degree (q = d), the mean-field estimate
        upper-bounds the *average* measured reach on an Erdos-Renyi-like
        overlay (individual floods vary with the source's degree)."""
        topo = random_topology(2_000, avg_degree=5.0, rng=np.random.default_rng(0))
        ov = Overlay(topo)
        rng = np.random.default_rng(1)
        sources = rng.integers(0, 2_000, size=20)
        for ttl in (2, 3):
            measured = [
                int((flood_reach(ov, int(src), ttl)[0] > 0).sum())
                for src in sources
            ]
            predicted = expected_flood_reach(
                5.0, ttl, n_nodes=2_000, excess_degree=5.0
            )
            assert np.mean(measured) <= predicted * 1.1

    def test_matches_simulation_at_small_ttl(self):
        """Before wrap-around, the Poisson-branching prediction and the
        measurement agree closely on a G(n, M) overlay."""
        topo = random_topology(5_000, avg_degree=5.0, rng=np.random.default_rng(2))
        ov = Overlay(topo)
        measured = []
        for src in range(0, 50, 5):
            first_hop, _, _ = flood_reach(ov, src, 2)
            measured.append(int((first_hop > 0).sum()))
        predicted = expected_flood_reach(5.0, 2, n_nodes=5_000, excess_degree=5.0)
        assert np.mean(measured) == pytest.approx(predicted, rel=0.25)


class TestWalkCoverageModel:
    def test_limits(self):
        assert expected_walk_coverage(100, 0) == 0.0
        assert expected_walk_coverage(100, 10_000) == pytest.approx(100.0, abs=0.01)

    def test_bounds_simulated_walks(self):
        """The occupancy model is an optimistic bound: real walks revisit
        more, landing at 75-100% of the prediction."""
        topo = random_topology(1_000, avg_degree=5.0, rng=np.random.default_rng(3))
        ov = Overlay(topo)
        rng = np.random.default_rng(4)
        steps = 800
        coverages = []
        for _ in range(5):
            node = 0
            visited = set()
            for _ in range(steps):
                nbrs, _ = ov.live_neighbors(node)
                node = int(nbrs[rng.integers(len(nbrs))])
                visited.add(node)
            coverages.append(len(visited))
        predicted = expected_walk_coverage(1_000, steps)
        mean = float(np.mean(coverages))
        assert mean <= predicted * 1.02
        assert mean >= 0.6 * predicted


class TestRttModel:
    def test_matches_measured_random_pairs(self):
        net = TransitStubNetwork(seed=0)
        model = LatencyModel(net)
        rng = np.random.default_rng(5)
        nodes = rng.choice(net.n_nodes, size=400, replace=False)
        model.register(nodes)
        rtts = 2.0 * model.pairwise_ms(nodes[:200], nodes[200:])
        predicted = expected_one_hop_rtt_ms()
        assert float(np.mean(rtts)) == pytest.approx(predicted, rel=0.2)
