"""Tests for ad forwarding (flood / random-walk / GSA deliveries)."""

import numpy as np
import pytest

from repro.asap.ads import Ad, AdType
from repro.asap.delivery import (
    FloodAdForwarder,
    GsaAdForwarder,
    RandomWalkAdForwarder,
    make_forwarder,
)
from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology, random_topology
from repro.sim.metrics import BandwidthLedger, TrafficCategory



def path_overlay(n=5, lat=10.0):
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)
    topo = OverlayTopology(name="path", n=n, edges=edges, physical_ids=np.arange(n))
    return Overlay(topo, default_edge_latency_ms=lat)


def full_ad(source=0, topics=(0,), n_set=5):
    return Ad(
        source=source,
        ad_type=AdType.FULL,
        topics=frozenset(topics),
        version=0,
        n_set_bits=n_set,
    )


def refresh_ad(source=0, topics=(0,)):
    return Ad(source=source, ad_type=AdType.REFRESH, topics=frozenset(topics), version=0)


#: A walk key (``repro.asap.delivery.walk_key`` derives a run's).
KEY = 0


class TestFloodForwarder:
    def test_reaches_everyone_within_ttl(self):
        ov = path_overlay(5)
        fwd = FloodAdForwarder(ov, BandwidthLedger(), KEY, ttl=6)
        report = fwd.deliver(full_ad(0), now=0.0)
        assert report.visited.tolist() == [1, 2, 3, 4]

    def test_ttl_limits_visited(self):
        ov = path_overlay(5)
        fwd = FloodAdForwarder(ov, BandwidthLedger(), KEY, ttl=2)
        report = fwd.deliver(full_ad(0), now=0.0)
        assert report.visited.tolist() == [1, 2]

    def test_bytes_are_messages_times_ad_size(self):
        ov = path_overlay(5)
        ledger = BandwidthLedger()
        fwd = FloodAdForwarder(ov, ledger, KEY, ttl=6)
        ad = full_ad(0)
        report = fwd.deliver(ad, now=0.0)
        expected = report.messages * ad.size_bytes()
        assert report.bytes == expected
        assert ledger.total_bytes([TrafficCategory.FULL_AD]) == expected

    def test_dead_source_delivers_nothing(self):
        ov = path_overlay(3)
        ov.leave(0)
        fwd = FloodAdForwarder(ov, BandwidthLedger(), KEY)
        report = fwd.deliver(full_ad(0), now=0.0)
        assert report.visited.tolist() == [] and report.messages == 0


class TestRandomWalkForwarder:
    def test_budget_bounds_messages(self):
        topo = random_topology(100, avg_degree=5.0, rng=np.random.default_rng(1))
        ov = Overlay(topo, default_edge_latency_ms=10.0)
        fwd = RandomWalkAdForwarder(
            ov, BandwidthLedger(), KEY, walkers=5, budget_unit=20
        )
        ad = full_ad(0, topics=(0, 1))  # budget = 2 * 20 = 40
        report = fwd.deliver(ad, now=0.0)
        assert report.messages <= 40
        assert report.messages >= 35  # walkers rarely strand on this graph

    def test_default_budget_scales_with_topics(self):
        ov = path_overlay(3)
        fwd = RandomWalkAdForwarder(
            ov, BandwidthLedger(), KEY, walkers=5, budget_unit=100
        )
        assert fwd.default_budget(full_ad(0, topics=(0,))) == 100
        assert fwd.default_budget(full_ad(0, topics=(0, 1, 2))) == 300

    def test_budget_override(self):
        topo = random_topology(50, avg_degree=4.0, rng=np.random.default_rng(2))
        ov = Overlay(topo, default_edge_latency_ms=10.0)
        fwd = RandomWalkAdForwarder(
            ov, BandwidthLedger(), KEY, walkers=5, budget_unit=1000
        )
        report = fwd.deliver(full_ad(0), now=0.0, budget=10)
        assert report.messages <= 10

    def test_visited_excludes_source(self):
        topo = random_topology(50, avg_degree=4.0, rng=np.random.default_rng(3))
        ov = Overlay(topo, default_edge_latency_ms=10.0)
        fwd = RandomWalkAdForwarder(
            ov, BandwidthLedger(), KEY, walkers=2, budget_unit=30
        )
        report = fwd.deliver(full_ad(7), now=0.0)
        assert 7 not in report.visited
        assert len(report.visited) > 0

    def test_bytes_bucketed_over_walk_duration(self):
        """A long walk spreads its bytes across multiple ledger seconds."""
        topo = random_topology(200, avg_degree=5.0, rng=np.random.default_rng(4))
        ov = Overlay(topo, default_edge_latency_ms=50.0)  # slow links
        ledger = BandwidthLedger()
        fwd = RandomWalkAdForwarder(
            ov, ledger, KEY, walkers=1, budget_unit=100
        )
        fwd.deliver(full_ad(0), now=0.0)  # 100 steps x 50ms = 5s walk
        series = ledger.series([TrafficCategory.FULL_AD])
        nonzero_seconds = int(np.count_nonzero(series.bytes_per_second))
        assert nonzero_seconds >= 4

    def test_refresh_ad_category(self):
        topo = random_topology(50, avg_degree=4.0, rng=np.random.default_rng(5))
        ov = Overlay(topo, default_edge_latency_ms=10.0)
        ledger = BandwidthLedger()
        fwd = RandomWalkAdForwarder(
            ov, ledger, KEY, walkers=2, budget_unit=10
        )
        fwd.deliver(refresh_ad(0), now=0.0)
        assert ledger.total_bytes([TrafficCategory.REFRESH_AD]) > 0
        assert ledger.total_bytes([TrafficCategory.FULL_AD]) == 0

    def test_stranded_walker(self):
        ov = path_overlay(2)
        ov.leave(1)
        # Source 0 alive but isolated: walkers cannot move.
        fwd = RandomWalkAdForwarder(
            ov, BandwidthLedger(), KEY, walkers=3, budget_unit=10
        )
        report = fwd.deliver(full_ad(0), now=0.0)
        assert report.messages == 0 and report.visited.tolist() == []


class TestGsaForwarder:
    def test_budget_bounds_messages(self):
        topo = random_topology(100, avg_degree=5.0, rng=np.random.default_rng(6))
        ov = Overlay(topo, default_edge_latency_ms=10.0)
        fwd = GsaAdForwarder(
            ov, BandwidthLedger(), KEY, walkers=5, budget_unit=20
        )
        report = fwd.deliver(full_ad(0), now=0.0)
        assert report.messages <= 20

    def test_coverage_within_budget_and_nontrivial(self):
        topo = random_topology(300, avg_degree=5.0, rng=np.random.default_rng(7))
        ov = Overlay(topo, default_edge_latency_ms=10.0)
        gsa = GsaAdForwarder(
            ov, BandwidthLedger(), 8, walkers=5,
            budget_unit=100,
        )
        report = gsa.deliver(full_ad(0), now=0.0)
        # Each delivered copy costs one message, so distinct coverage cannot
        # exceed the budget -- and the replication should cover a nontrivial
        # fraction of it despite probe overlap with the walk path.
        assert len(report.visited) <= report.messages <= 100
        assert len(report.visited) >= 0.2 * report.messages

    def test_fewer_sequential_hops_than_plain_walk(self):
        """Probes are parallel pushes: for equal budget, the GSA walker
        itself takes fewer sequential steps, so the delivery finishes
        earlier (bytes land in earlier ledger seconds)."""
        topo = random_topology(300, avg_degree=5.0, rng=np.random.default_rng(7))
        ov = Overlay(topo, default_edge_latency_ms=50.0)
        led_rw, led_gsa = BandwidthLedger(), BandwidthLedger()
        walk = RandomWalkAdForwarder(
            ov, led_rw, 8, walkers=1, budget_unit=100
        )
        gsa = GsaAdForwarder(
            ov, led_gsa, 8, walkers=1, budget_unit=100
        )
        walk.deliver(full_ad(0), now=0.0)
        gsa.deliver(full_ad(0), now=0.0)
        last_rw = len(led_rw.series([TrafficCategory.FULL_AD]))
        last_gsa = len(led_gsa.series([TrafficCategory.FULL_AD]))
        assert last_gsa <= last_rw


class TestMakeForwarder:
    def test_by_kind(self):
        ov = path_overlay(3)
        ledger = BandwidthLedger()
        assert isinstance(
            make_forwarder("fld", ov, ledger, KEY), FloodAdForwarder
        )
        assert isinstance(
            make_forwarder("rw", ov, ledger, KEY), RandomWalkAdForwarder
        )
        assert isinstance(
            make_forwarder("gsa", ov, ledger, KEY), GsaAdForwarder
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_forwarder("chord", path_overlay(3), BandwidthLedger(), KEY)

    def test_invalid_params(self):
        ov = path_overlay(3)
        with pytest.raises(ValueError):
            FloodAdForwarder(ov, BandwidthLedger(), KEY, ttl=0)
        with pytest.raises(ValueError):
            RandomWalkAdForwarder(ov, BandwidthLedger(), KEY, walkers=0)
        with pytest.raises(ValueError):
            GsaAdForwarder(ov, BandwidthLedger(), KEY, budget_unit=0)
