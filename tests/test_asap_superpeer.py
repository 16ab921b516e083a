"""Tests for the hierarchical (super-peer) ASAP variant."""

import numpy as np
import pytest

from repro.asap.protocol import AsapParams
from repro.asap.superpeer import SuperPeerAsapSearch, elect_super_peers
from repro.network.overlay import Overlay
from repro.network.topology import crawled_topology, random_topology
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import BandwidthLedger
from repro.workload.content import ContentIndex, Document
from repro.workload.interests import topic_bits


def build(
    n=80, holder=40, super_fraction=0.2, seed=0, forwarder="fld", interests=None
):
    topo = crawled_topology(n, rng=np.random.default_rng(seed))
    overlay = Overlay(topo, default_edge_latency_ms=10.0)
    content = ContentIndex()
    content.register_document(Document(doc_id=1, class_id=0, keywords=("rock", "live")))
    content.place(holder, 1)
    algo = SuperPeerAsapSearch(
        overlay,
        content,
        BandwidthLedger(),
        rng=np.random.default_rng(seed),
        interests=interests or [{0} for _ in range(n)],
        params=AsapParams(forwarder=forwarder, budget_unit=100),
        super_fraction=super_fraction,
    )
    return algo, content, overlay


def warm(algo, duration=20.0):
    engine = SimulationEngine()
    algo.warmup(engine, start=0.0, duration=duration)
    engine.run(until=duration)
    return engine


class TestElection:
    def test_fraction_respected(self):
        topo = random_topology(100, avg_degree=5.0, rng=np.random.default_rng(1))
        overlay = Overlay(topo)
        supers = elect_super_peers(overlay, 0.1, np.random.default_rng(0))
        assert len(supers) == 10

    def test_high_degree_selected(self):
        topo = crawled_topology(200, rng=np.random.default_rng(2))
        overlay = Overlay(topo)
        supers = elect_super_peers(overlay, 0.1, np.random.default_rng(0))
        degrees = topo.degrees()
        super_mean = degrees[supers].mean()
        assert super_mean > 2 * degrees.mean()

    def test_offline_nodes_excluded(self):
        topo = random_topology(50, avg_degree=5.0, rng=np.random.default_rng(3))
        overlay = Overlay(topo)
        for node in range(25):
            overlay.leave(node)
        supers = elect_super_peers(overlay, 0.2, np.random.default_rng(0))
        assert all(s >= 25 for s in supers)

    def test_invalid_fraction(self):
        topo = random_topology(20, avg_degree=4.0, rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            elect_super_peers(Overlay(topo), 0.0, np.random.default_rng(0))

    def test_at_least_one_super(self):
        topo = random_topology(20, avg_degree=4.0, rng=np.random.default_rng(5))
        supers = elect_super_peers(Overlay(topo), 0.01, np.random.default_rng(0))
        assert len(supers) == 1


class TestHierarchicalCaching:
    def test_only_super_peers_cache(self):
        algo, _, _ = build()
        warm(algo)
        for node in range(algo.overlay.n):
            if not algo.is_super_peer(node) and node != 40:
                assert algo.state.occupancy[node] == 0, f"leaf {node} cached ads"
        cached_on_supers = sum(
            int(algo.state.occupancy[s]) for s in np.flatnonzero(algo._is_super)
        )
        assert cached_on_supers > 0

    def test_every_leaf_has_a_super(self):
        algo, _, _ = build()
        for node in range(algo.overlay.n):
            sp = algo.super_peer_of(node)
            assert algo.is_super_peer(sp)

    def test_super_peer_of_self(self):
        algo, _, _ = build()
        sp = int(np.flatnonzero(algo._is_super)[0])
        assert algo.super_peer_of(sp) == sp

    def test_supers_aggregate_leaf_interests(self):
        topo = crawled_topology(60, rng=np.random.default_rng(6))
        overlay = Overlay(topo, default_edge_latency_ms=10.0)
        content = ContentIndex()
        content.register_document(Document(doc_id=1, class_id=5, keywords=("x",)))
        content.place(0, 1)
        interests = [{i % 3} for i in range(60)]
        algo = SuperPeerAsapSearch(
            overlay, content, BandwidthLedger(),
            rng=np.random.default_rng(0),
            interests=interests,
            params=AsapParams(forwarder="fld"),
            super_fraction=0.1,
        )
        caching = algo.state.interest_bits
        leaves = np.flatnonzero(algo._super_of >= 0)
        assert len(leaves) == 60 - np.count_nonzero(algo._is_super)
        for leaf, sp in zip(leaves.tolist(), algo._super_of[leaves].tolist()):
            leaf_bits = topic_bits(interests[leaf])
            assert caching[sp] & leaf_bits == leaf_bits
            assert caching[sp] & topic_bits(interests[sp])
        # A node's own interests (the probes' audience) stay unaggregated.
        assert algo.interests.bitmasks.tolist() == [
            topic_bits(s) for s in interests
        ]


class TestHierarchicalSearch:
    def test_leaf_search_succeeds_via_super(self):
        algo, _, _ = build()
        warm(algo)
        leaf = next(
            n for n in range(algo.overlay.n)
            if not algo.is_super_peer(n) and n != 40
        )
        out = algo.search(leaf, ["rock"], now=30.0)
        assert out.success
        # Leaf pays its round-trip to the super peer on top of the inner
        # ASAP flow.
        assert out.messages >= 4  # leaf hop (2) + confirmation (2)

    def test_super_search_has_no_leaf_overhead(self):
        algo, _, _ = build()
        warm(algo)
        sp = next(int(s) for s in np.flatnonzero(algo._is_super) if int(s) != 40)
        out = algo.search(sp, ["rock"], now=30.0)
        assert out.success
        assert out.messages == 2  # straight confirmation round-trip

    def test_leaf_failure_propagates(self):
        algo, _, _ = build()
        warm(algo)
        leaf = next(n for n in range(algo.overlay.n) if not algo.is_super_peer(n))
        out = algo.search(leaf, ["absent-term"], now=30.0)
        assert not out.success

    def test_local_hit_needs_no_super(self):
        algo, _, _ = build()
        warm(algo)
        out = algo.search(40, ["rock"], now=30.0)
        assert out.local_hit and out.messages == 0

    def test_name(self):
        algo, _, _ = build(forwarder="rw")
        assert algo.name == "ASAP-SP(RW)"


class TestChurn:
    def test_leaf_reattaches_when_super_leaves(self):
        algo, _, overlay = build(super_fraction=0.25)
        warm(algo)
        leaf = next(n for n in range(overlay.n) if not algo.is_super_peer(n))
        old_sp = algo.super_peer_of(leaf)
        overlay.leave(old_sp)
        algo.on_leave(old_sp, now=40.0)
        new_sp = algo.super_peer_of(leaf)
        assert new_sp != old_sp
        assert overlay.is_live(new_sp)

    def test_rejoining_leaf_reattaches(self):
        algo, _, overlay = build()
        warm(algo)
        leaf = next(n for n in range(overlay.n) if not algo.is_super_peer(n))
        overlay.leave(leaf)
        algo.on_leave(leaf, now=40.0)
        overlay.join(leaf)
        algo.on_join(leaf, now=50.0)
        assert algo.is_super_peer(algo.super_peer_of(leaf))


class TestRehoming:
    """A leaf re-homed at another super peer brings its interests along,
    so super peers cache every ad any of their leaves would want."""

    def _build_with_odd_leaf(self):
        # The election draws only from the overlay and the rng, so the same
        # seed elects the same tier whatever the interests.
        probe, _, _ = build(super_fraction=0.25)
        leaf = next(
            n for n in range(probe.overlay.n)
            if not probe.is_super_peer(n) and n != 40
        )
        interests = [{0} for _ in range(probe.overlay.n)]
        interests[leaf] = {5}  # a class no other peer wants
        algo, _, overlay = build(super_fraction=0.25, interests=interests)
        assert (algo._is_super == probe._is_super).all()
        warm(algo)
        old_sp = algo.super_peer_of(leaf)
        wanted = topic_bits({5})
        assert algo.state.interest_bits[old_sp] & wanted == wanted
        overlay.leave(old_sp)
        algo.on_leave(old_sp, now=40.0)
        return algo, overlay, leaf, old_sp, wanted

    def test_search_after_super_leaves_rehomes_the_interests(self):
        algo, _, leaf, old_sp, wanted = self._build_with_odd_leaf()
        algo.search(leaf, ["rock"], now=41.0)
        new_sp = algo.super_peer_of(leaf)
        assert new_sp != old_sp
        assert algo.state.interest_bits[new_sp] & wanted == wanted

    def test_rejoin_after_super_leaves_rehomes_the_interests(self):
        algo, overlay, leaf, old_sp, wanted = self._build_with_odd_leaf()
        overlay.leave(leaf)
        algo.on_leave(leaf, now=41.0)
        overlay.join(leaf)
        algo.on_join(leaf, now=42.0)
        new_sp = algo.super_peer_of(leaf)
        assert new_sp != old_sp
        assert algo.state.interest_bits[new_sp] & wanted == wanted
