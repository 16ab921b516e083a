"""Tests for the expanding-ring baseline (Lv et al., reference [21])."""

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology, random_topology
from repro.search.expanding_ring import ExpandingRingSearch
from repro.search.flooding import FloodingSearch
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.workload.content import ContentIndex, Document


def path_overlay(n=8, lat=10.0):
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)
    topo = OverlayTopology(name="path", n=n, edges=edges, physical_ids=np.arange(n))
    return Overlay(topo, default_edge_latency_ms=lat)


def build(overlay, holder, **kwargs):
    content = ContentIndex()
    content.register_document(Document(doc_id=1, class_id=0, keywords=("rock",)))
    content.place(holder, 1)
    ledger = BandwidthLedger()
    algo = ExpandingRingSearch(
        overlay, content, ledger, rng=np.random.default_rng(0), **kwargs
    )
    return algo, content, ledger


class TestRings:
    def test_adjacent_holder_found_by_first_ring(self):
        algo, _, _ = build(path_overlay(), holder=1)
        out = algo.search(0, ["rock"], now=0.0)
        assert out.success
        assert out.messages == 1 + 1  # ring-1 flood on a path + 1 response
        assert out.response_time_ms == pytest.approx(20.0)

    def test_distant_holder_needs_larger_rings(self):
        algo, _, _ = build(path_overlay(), holder=4)
        out = algo.search(0, ["rock"], now=0.0)
        assert out.success
        # Rings 1 and 2 miss; their timeout horizons precede ring 4's hit.
        assert out.response_time_ms > 2 * 4 * 10.0

    def test_cheaper_than_flooding_for_near_content(self):
        overlay = path_overlay()
        ring_algo, _, _ = build(overlay, holder=1)
        content = ContentIndex()
        content.register_document(Document(doc_id=1, class_id=0, keywords=("rock",)))
        content.place(1, 1)
        flood = FloodingSearch(
            overlay, content, BandwidthLedger(), rng=np.random.default_rng(0), ttl=6
        )
        ring_out = ring_algo.search(0, ["rock"], now=0.0)
        flood_out = flood.search(0, ["rock"], now=0.0)
        assert ring_out.cost_bytes < flood_out.cost_bytes

    def test_failure_beyond_last_ring(self):
        algo, _, _ = build(path_overlay(), holder=7)
        algo = ExpandingRingSearch(
            algo.overlay, algo.content, algo.ledger,
            rng=np.random.default_rng(0), ttl_sequence=(1, 2),
        )
        out = algo.search(0, ["rock"], now=0.0)
        assert not out.success
        assert out.messages > 0

    def test_local_hit(self):
        algo, _, ledger = build(path_overlay(), holder=0)
        out = algo.search(0, ["rock"], now=0.0)
        assert out.local_hit
        assert ledger.total_bytes() == 0

    def test_ledger_matches_outcome(self):
        overlay = random_topology(80, avg_degree=4.0, rng=np.random.default_rng(1))
        ov = Overlay(overlay, default_edge_latency_ms=10.0)
        algo, _, ledger = build(ov, holder=40)
        out = algo.search(0, ["rock"], now=5.0)
        total = ledger.total_bytes(
            [TrafficCategory.QUERY, TrafficCategory.QUERY_RESPONSE]
        )
        assert out.cost_bytes == pytest.approx(total)

    def test_invalid_sequences(self):
        ov = path_overlay()
        with pytest.raises(ValueError):
            ExpandingRingSearch(ov, ContentIndex(), BandwidthLedger(), ttl_sequence=())
        with pytest.raises(ValueError):
            ExpandingRingSearch(
                ov, ContentIndex(), BandwidthLedger(), ttl_sequence=(4, 2)
            )

    def test_a_repeated_ring_is_rejected(self):
        """``(2, 2)`` is sorted but would flood, charge and wait out the
        TTL-2 ring twice."""
        ov = path_overlay()
        with pytest.raises(ValueError, match="strictly increasing"):
            ExpandingRingSearch(
                ov, ContentIndex(), BandwidthLedger(), ttl_sequence=(2, 2)
            )
        ExpandingRingSearch(
            ov, ContentIndex(), BandwidthLedger(), ttl_sequence=(1, 2, 4, 6)
        )

    def test_runner_integration(self):
        from repro.simulation import run_experiment, scaled_config

        cfg = scaled_config(
            "expanding_ring", "random", n_peers=120, n_queries=60,
            use_physical_network=False,
        )
        result = run_experiment(cfg)
        assert result.algorithm == "expanding_ring"
        assert result.success_rate() > 0.8  # ring cap reaches ~everything
