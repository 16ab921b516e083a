"""Edge cases and small contracts not covered by the main suites."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.asap.protocol import AsapParams, AsapSearch
from repro.experiments.figures import ExperimentScale
from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology, random_topology
from repro.sim.engine import ms
from repro.sim.metrics import BandwidthLedger
from repro.simulation.config import paper_config
from repro.simulation.results import RunResult
from repro.workload.content import ContentIndex, Document


class TestExperimentScale:
    def test_paper_scale_builds_paper_config(self):
        scale = ExperimentScale.paper()
        cfg = scale.config("flooding", "crawled")
        assert cfg.n_peers == 10_000
        assert cfg.trace.n_queries == 30_000
        assert cfg.rw_ttl == 1024  # unscaled

    def test_scaled_config_from_scale(self):
        scale = ExperimentScale(n_peers=500, n_queries=700)
        cfg = scale.config("asap_rw", "random")
        assert cfg.n_peers == 500
        assert cfg.trace.n_queries == 700
        assert cfg.topology == "random"


class TestRunResultEdgeCases:
    def _empty(self):
        return RunResult(
            algorithm="x",
            topology="random",
            n_peers=10,
            outcomes=[],
            ledger=BandwidthLedger(),
            load_categories=frozenset(),
            live_counts=np.array([10, 10]),
            t_start=0,
            t_end=2,
        )

    def test_empty_outcomes(self):
        result = self._empty()
        assert result.success_rate() == 0.0
        assert math.isnan(result.avg_response_time_ms())
        assert result.avg_cost_bytes() == 0.0
        assert result.avg_messages() == 0.0

    def test_empty_breakdown(self):
        result = self._empty()
        assert result.ad_breakdown() == {}

    def test_summary_of_empty(self):
        summary = self._empty().summarize()
        assert summary.n_queries == 0
        assert summary.load_mean_bpns == 0.0


class TestEngineHelpers:
    def test_ms(self):
        assert ms(1500.0) == 1.5


def within_h(algo, node):
    """``node``'s neighbours within h hops as ``{id: one-way latency}``,
    checking that they come in ascending id order."""
    nodes, lats = algo._neighbors_within_h(node)
    assert nodes.tolist() == sorted(nodes.tolist())
    return dict(zip(nodes.tolist(), lats.tolist()))


class TestNeighborsWithinH:
    def _protocol_on(self, edges, n, h, lats=None):
        topo = OverlayTopology(
            name="t", n=n, edges=np.asarray(edges, dtype=np.int64),
            physical_ids=np.arange(n),
        )
        overlay = Overlay(
            topo,
            default_edge_latency_ms=10.0,
            edge_latencies_ms=None if lats is None else np.asarray(lats, float),
        )
        algo = AsapSearch(
            overlay,
            ContentIndex(),
            BandwidthLedger(),
            rng=np.random.default_rng(0),
            interests=[{0}] * n,
            params=AsapParams(forwarder="fld", ads_request_hops=h),
        )
        return algo

    def test_h1_is_direct_neighbors(self):
        algo = self._protocol_on([[0, 1], [0, 2], [2, 3]], n=4, h=1)
        got = within_h(algo, 0)
        assert set(got) == {1, 2}

    def test_h2_reaches_two_hops_with_latency_sums(self):
        algo = self._protocol_on(
            [[0, 1], [1, 2], [0, 3]], n=4, h=2, lats=[5.0, 7.0, 3.0]
        )
        got = within_h(algo, 0)
        assert got == {1: 5.0, 3: 3.0, 2: 12.0}

    def test_h0_empty(self):
        algo = self._protocol_on([[0, 1]], n=2, h=0)
        assert within_h(algo, 0) == {}

    def test_dead_neighbors_excluded(self):
        algo = self._protocol_on([[0, 1], [1, 2]], n=3, h=2)
        algo.overlay.leave(1)
        assert within_h(algo, 0) == {}

    def test_requester_never_its_own_neighbor(self):
        # Triangle: a 2-hop walk returns to 0; it must not be listed.
        algo = self._protocol_on([[0, 1], [1, 2], [0, 2]], n=3, h=2)
        got = within_h(algo, 0)
        assert 0 not in got

    def test_shortest_path_kept_on_multiple_routes(self):
        # Two routes to node 3: 0-1-3 (5+5) and 0-2-3 (20+1).
        algo = self._protocol_on(
            [[0, 1], [1, 3], [0, 2], [2, 3]], n=4, h=2,
            lats=[5.0, 5.0, 20.0, 1.0],
        )
        got = within_h(algo, 0)
        assert got[3] == 10.0


class TestRandomTopologyWithLatencyOverride:
    def test_edge_latencies_length_validated(self):
        topo = random_topology(10, avg_degree=3.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            Overlay(topo, edge_latencies_ms=np.array([1.0, 2.0]))

    def test_override_flows_to_views(self):
        topo = random_topology(10, avg_degree=3.0, rng=np.random.default_rng(0))
        lats = np.arange(1.0, len(topo.edges) + 1.0)
        overlay = Overlay(topo, edge_latencies_ms=lats)
        edge_lats = overlay.walk_csr().lats
        assert set(edge_lats.tolist()) == set(lats.tolist())
        nbrs, nl = overlay.live_neighbors(0)
        assert len(nbrs) == len(nl)


class TestAsapParamValidation:
    def test_budget_unit_is_refused_before_set_up(self):
        """A non-positive M0 is refused while the cell is described -- ASAP(FLD)
        never reads it, and the walk forwarders only after minutes of set-up."""
        for bad in (0, -5):
            with pytest.raises(ValueError, match="budget_unit"):
                AsapParams(budget_unit=bad)
            for algorithm in ("asap_fld", "asap_rw"):
                config = paper_config(algorithm)
                with pytest.raises(ValueError, match="budget_unit"):
                    replace(config, asap=replace(config.asap, budget_unit=bad))
        AsapParams(budget_unit=1)  # boundary OK
