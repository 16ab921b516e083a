"""Tests for the cache-state snapshot of a hand-warmed ASAP instance."""

import numpy as np
import pytest

from repro.asap.protocol import AsapParams, AsapSearch
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.obs.probes import snapshot_state
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import BandwidthLedger
from repro.workload.content import ContentIndex, Document


def make_overlay(n=40, seed=0):
    topo = random_topology(n, avg_degree=4.0, rng=np.random.default_rng(seed))
    return Overlay(topo, default_edge_latency_ms=10.0)


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
