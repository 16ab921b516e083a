"""Tests for the flooding search and the shared flood kernel."""

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology, random_topology
from repro.search.flooding import FloodingSearch, flood_reach
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.workload.content import ContentIndex, Document


def path_overlay(n=5, lat=10.0):
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)
    topo = OverlayTopology(name="path", n=n, edges=edges, physical_ids=np.arange(n))
    return Overlay(topo, default_edge_latency_ms=lat)


def star_overlay(n_leaves=4, lat=10.0):
    """Node 0 is the hub; leaves are 1..n_leaves."""
    edges = np.array([[0, i] for i in range(1, n_leaves + 1)], dtype=np.int64)
    topo = OverlayTopology(
        name="star", n=n_leaves + 1, edges=edges, physical_ids=np.arange(n_leaves + 1)
    )
    return Overlay(topo, default_edge_latency_ms=lat)


class TestFloodReach:
    def test_hops_on_path(self):
        ov = path_overlay(5)
        first_hop, arrival, msgs = flood_reach(ov, 0, ttl=6)
        assert list(first_hop) == [0, 1, 2, 3, 4]
        assert list(arrival) == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_ttl_bounds_reach(self):
        ov = path_overlay(5)
        first_hop, arrival, _ = flood_reach(ov, 0, ttl=2)
        assert list(first_hop) == [0, 1, 2, -1, -1]
        assert np.isinf(arrival[3]) and np.isinf(arrival[4])

    def test_message_count_on_path(self):
        # 0 sends 1 (deg 1); nodes 1..3 forward deg-1 = 1 each; node 4 at
        # hop 4 < ttl forwards deg-1 = 0.  Total = 4.
        ov = path_overlay(5)
        _, _, msgs = flood_reach(ov, 0, ttl=6)
        assert msgs == 4

    def test_message_count_star_from_hub(self):
        # Hub sends 4; each leaf (hop 1 < ttl) forwards deg-1 = 0.
        ov = star_overlay(4)
        _, _, msgs = flood_reach(ov, 0, ttl=6)
        assert msgs == 4

    def test_message_count_star_from_leaf(self):
        # Leaf 1 sends 1; hub (hop 1) forwards 3; other leaves forward 0.
        ov = star_overlay(4)
        _, _, msgs = flood_reach(ov, 1, ttl=6)
        assert msgs == 4

    def test_duplicates_counted_in_triangle(self):
        # Triangle 0-1-2: 0 sends 2; 1 and 2 each forward 1 (to each other,
        # duplicates that get dropped but still crossed the wire).  Total 4.
        edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        topo = OverlayTopology(name="tri", n=3, edges=edges, physical_ids=np.arange(3))
        ov = Overlay(topo, default_edge_latency_ms=5.0)
        _, _, msgs = flood_reach(ov, 0, ttl=6)
        assert msgs == 4

    def test_min_latency_beats_min_hop(self):
        """Arrival follows the fastest path within the hop bound."""
        # 0-1 (100ms), 0-2 (10ms), 2-1 (10ms): node 1 reachable in 1 hop
        # at 100ms or 2 hops at 20ms.
        edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        topo = OverlayTopology(name="t", n=3, edges=edges, physical_ids=np.arange(3))
        ov = Overlay(topo, edge_latencies_ms=np.array([100.0, 10.0, 10.0]))
        first_hop, arrival, _ = flood_reach(ov, 0, ttl=6)
        assert first_hop[1] == 1  # first copy arrives via the direct edge...
        assert arrival[1] == 20.0  # ...but the earliest arrival is 2-hop

    def test_offline_nodes_not_reached(self):
        ov = path_overlay(5)
        ov.leave(2)
        first_hop, _, _ = flood_reach(ov, 0, ttl=6)
        assert first_hop[3] == -1 and first_hop[4] == -1

    def test_offline_source_rejected(self):
        ov = path_overlay(3)
        ov.leave(0)
        with pytest.raises(ValueError):
            flood_reach(ov, 0, ttl=6)

    def test_bad_ttl(self):
        with pytest.raises(ValueError):
            flood_reach(path_overlay(3), 0, ttl=0)


def build_search(overlay, holder=4, keywords=("rock", "live"), **kwargs):
    content = ContentIndex()
    content.register_document(Document(doc_id=1, class_id=0, keywords=keywords))
    content.place(holder, 1)
    ledger = BandwidthLedger()
    algo = FloodingSearch(overlay, content, ledger, **kwargs)
    return algo, content, ledger


class TestFloodingSearch:
    def test_success_and_rtt(self):
        algo, _, _ = build_search(path_overlay(5), holder=2)
        out = algo.search(0, ["rock"], now=0.0)
        assert out.success
        assert out.response_time_ms == pytest.approx(40.0)  # 2 x 20ms
        assert out.results == 1

    def test_failure_beyond_ttl(self):
        algo, _, _ = build_search(path_overlay(10), holder=9, ttl=3)
        out = algo.search(0, ["rock"], now=0.0)
        assert not out.success
        assert out.messages > 0

    def test_local_hit_is_free(self):
        algo, _, ledger = build_search(path_overlay(5), holder=0)
        out = algo.search(0, ["rock"], now=0.0)
        assert out.success and out.local_hit
        assert ledger.total_bytes() == 0

    def test_ledger_accounting(self):
        algo, _, ledger = build_search(path_overlay(5), holder=2)
        out = algo.search(0, ["rock"], now=3.2)
        q = ledger.total_bytes([TrafficCategory.QUERY])
        r = ledger.total_bytes([TrafficCategory.QUERY_RESPONSE])
        assert q == 4 * 100  # path message count x query size
        assert r == 2 * 80  # responder at hop 2 -> 2 response transmissions
        assert out.cost_bytes == q + r

    def test_all_query_terms_required(self):
        algo, content, _ = build_search(path_overlay(5), holder=2)
        content.register_document(Document(doc_id=2, class_id=0, keywords=("rock",)))
        content.place(1, 2)
        out = algo.search(0, ["rock", "live"], now=0.0)
        # Node 1 holds only "rock": the match must be node 2's doc.
        assert out.success
        assert out.response_time_ms == pytest.approx(40.0)

    def test_multiple_results_counted(self):
        algo, content, _ = build_search(path_overlay(5), holder=2)
        content.place(4, 1)
        out = algo.search(0, ["rock"], now=0.0)
        assert out.results == 2
        assert out.response_time_ms == pytest.approx(40.0)  # nearest wins

    def test_offline_holder_not_found(self):
        overlay = path_overlay(5)
        algo, _, _ = build_search(overlay, holder=2)
        overlay.leave(2)
        # Path is broken at node 2, and the holder is offline anyway.
        out = algo.search(0, ["rock"], now=0.0)
        assert not out.success

    def test_random_topology_high_reach(self):
        topo = random_topology(300, avg_degree=5.0, rng=np.random.default_rng(0))
        ov = Overlay(topo, default_edge_latency_ms=20.0)
        first_hop, _, msgs = flood_reach(ov, 0, ttl=6)
        assert (first_hop >= 0).mean() > 0.95  # TTL 6 covers ~everyone
        assert msgs > 300  # floods cost at least one message per reached node
