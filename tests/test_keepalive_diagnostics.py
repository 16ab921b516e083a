"""Tests for keep-alive traffic modelling and the cache-state snapshot of a
hand-warmed ASAP instance."""

import numpy as np
import pytest

from repro.asap.protocol import AsapParams, AsapSearch
from repro.network.keepalive import KeepaliveTraffic
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.obs.probes import snapshot_state
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import (
    ASAP_LOAD_CATEGORIES,
    BASELINE_LOAD_CATEGORIES,
    BandwidthLedger,
    TrafficCategory,
)
from repro.workload.content import ContentIndex, Document


def make_overlay(n=40, seed=0):
    topo = random_topology(n, avg_degree=4.0, rng=np.random.default_rng(seed))
    return Overlay(topo, default_edge_latency_ms=10.0)


class TestKeepalive:
    def test_sweeps_record_expected_bytes(self):
        overlay = make_overlay()
        ledger = BandwidthLedger()
        engine = SimulationEngine()
        ka = KeepaliveTraffic(engine, overlay, ledger, period_s=10.0, ping_bytes=40)
        engine.run(until=35.0)  # sweeps at 10, 20, 30
        n_directed = 2 * len(overlay.topology.edges)  # every node is live
        expected = 3 * n_directed * 40
        assert ledger.total_bytes([TrafficCategory.KEEPALIVE]) == expected

    def test_excluded_from_every_load_category(self):
        assert TrafficCategory.KEEPALIVE not in ASAP_LOAD_CATEGORIES
        assert TrafficCategory.KEEPALIVE not in BASELINE_LOAD_CATEGORIES

    def test_load_series_unaffected(self):
        """Footnote 1 made operational: keep-alives never enter load series."""
        overlay = make_overlay()
        ledger = BandwidthLedger()
        engine = SimulationEngine()
        KeepaliveTraffic(engine, overlay, ledger, period_s=5.0)
        engine.run(until=20.0)
        asap_series = ledger.series(ASAP_LOAD_CATEGORIES)
        assert asap_series.bytes_per_second.sum() == 0.0
        assert ledger.total_bytes() > 0

    def test_churn_shrinks_sweep(self):
        overlay = make_overlay()
        ledger = BandwidthLedger()
        engine = SimulationEngine()
        ka = KeepaliveTraffic(engine, overlay, ledger, period_s=10.0)
        engine.run(until=11.0)
        first = ledger.total_bytes([TrafficCategory.KEEPALIVE])
        for node in range(20):
            overlay.leave(node)
        engine.run(until=21.0)
        second = ledger.total_bytes([TrafficCategory.KEEPALIVE]) - first
        assert second < first

    def test_stop(self):
        overlay = make_overlay()
        ledger = BandwidthLedger()
        engine = SimulationEngine()
        ka = KeepaliveTraffic(engine, overlay, ledger, period_s=5.0)
        ka.stop()
        engine.run(until=30.0)
        assert ledger.total_bytes() == 0.0

    def test_analytic_rate(self):
        overlay = make_overlay()
        ledger = BandwidthLedger()
        engine = SimulationEngine()
        ka = KeepaliveTraffic(engine, overlay, ledger, period_s=10.0, ping_bytes=40)
        rate = ka.expected_bytes_per_node_per_second()
        n_directed = 2 * len(overlay.topology.edges)
        assert rate == pytest.approx(n_directed * 40 / 10.0 / 40)

    def test_invalid_params(self):
        overlay = make_overlay()
        with pytest.raises(ValueError):
            KeepaliveTraffic(SimulationEngine(), overlay, BandwidthLedger(), period_s=0)
        with pytest.raises(ValueError):
            KeepaliveTraffic(
                SimulationEngine(), overlay, BandwidthLedger(), ping_bytes=0
            )


class TestDiagnostics:
    @pytest.fixture
    def warmed_asap(self):
        overlay = make_overlay(n=30, seed=1)
        content = ContentIndex()
        content.register_document(Document(doc_id=1, class_id=0, keywords=("rock",)))
        content.register_document(Document(doc_id=2, class_id=0, keywords=("jazz",)))
        content.place(5, 1)
        content.place(9, 2)
        algo = AsapSearch(
            overlay,
            content,
            BandwidthLedger(),
            rng=np.random.default_rng(0),
            interests=[{0} for _ in range(30)],
            params=AsapParams(forwarder="fld"),
        )
        engine = SimulationEngine()
        algo.warmup(engine, start=0.0, duration=10.0)
        engine.run(until=10.0)
        return algo

    def test_counts_after_warmup(self, warmed_asap):
        snap = snapshot_state(warmed_asap, now=10.0)
        assert snap["nodes"] == 30
        assert snap["entries"] > 0
        assert snap["occupancy"]["total"] == snap["entries"]
        assert snap["occupancy"]["max"] >= np.median(warmed_asap.state.occupancy)
        assert snap["staleness"]["behind"] == 0  # no patches yet

    def test_full_flood_coverage_near_one(self, warmed_asap):
        coverage = snapshot_state(warmed_asap, now=10.0)["coverage"]
        assert coverage["sources"] == 2
        # A flood reaches everyone.
        assert coverage["covered"] / coverage["audience"] > 0.9
