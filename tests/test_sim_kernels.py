"""Unit tests for the walk-kernel primitives (repro.sim.kernels).

The end-to-end guarantees live in tests/test_walk_kernels_differential.py;
these tests pin the individual building blocks: the stepping recurrence,
the block post-processing (cumsum exactness, stranded lanes), per-second
message counts, and the search result shape.
"""

import math

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology, random_topology
from repro.sim import kernels
from repro.sim.kernels import WalkCsr


def path_csr(n=5, lat=10.0):
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)
    topo = OverlayTopology(name="path", n=n, edges=edges, physical_ids=np.arange(n))
    return Overlay(topo, default_edge_latency_ms=lat).walk_csr()


def random_csr(seed=0, n=200, deg=4.0, lat=15.0):
    topo = random_topology(n=n, avg_degree=deg, rng=np.random.default_rng(seed))
    return Overlay(topo, default_edge_latency_ms=lat).walk_csr()


class TestWalkCsr:
    def test_mirrors_match_arrays(self):
        """The rows mirror the CSR arrays, one slice of each per node."""
        csr = random_csr()
        assert csr.n == len(csr.indptr) - 1
        for u in range(csr.n):
            lo, hi = csr.indptr[u], csr.indptr[u + 1]
            assert csr.nbr[u] == csr.indices[lo:hi].tolist()
            assert csr.nbr_lat[u] == csr.lats[lo:hi].tolist()
            assert csr.dgf[u] == float(hi - lo)
        assert sum(map(len, csr.nbr)) == len(csr.indices)

    def test_lats_positive_flag(self):
        assert random_csr(lat=15.0).lats_positive
        assert not path_csr(lat=0.0).lats_positive
        # Empty edge set counts as positive (nothing violates the premise).
        topo = OverlayTopology(
            name="isolated",
            n=3,
            edges=np.empty((0, 2), dtype=np.int64),
            physical_ids=np.arange(3),
        )
        assert Overlay(topo).walk_csr().lats_positive


def sink_csr():
    """Directed: 3 -> 0 -> 1 -> 2 (no way out of 2); node 4 isolated."""
    return WalkCsr(
        np.array([0, 1, 2, 2, 3, 3]), np.array([1, 2, 0]), np.array([400.0, 700.0, 300.0])
    )


def by_second(first, counts, size_bytes):
    """``{second: bytes}`` of ``counts[i]`` messages in second ``first + i``."""
    return {
        first + i: n * float(size_bytes) for i, n in enumerate(counts.tolist()) if n
    }


def one_delivery(csr, source, draws, now, size_bytes):
    """One ASAP(RW) delivery of ``draws``' ``(walkers, steps)`` block as a
    batch of one: ``(receivers, n_messages, {second: bytes})``."""
    walkers, steps = draws.shape
    [(visited, n_messages, first, counts)] = kernels.rw_delivery_batch(
        csr, [source], [steps], walkers, draws.reshape(-1), [now]
    )
    return visited, n_messages, by_second(first, counts, size_bytes)


class TestWalkBlock:
    def test_fold_and_row_cumsum_equal_sequential_addition(self):
        """Each row continues from its own elapsed time: the column-0 fold
        plus ``cumsum(axis=1)`` is the per-step loop's ``elapsed += lat``,
        bit for bit, on the step loop's own trajectory."""
        rng = np.random.default_rng(11)
        topo = random_topology(n=300, avg_degree=4.0, rng=rng)
        lats = rng.random(len(topo.edges)) * 37.3 + 0.01
        csr = Overlay(topo, edge_latencies_ms=lats).walk_csr()
        origins = [0, 5, 9, 0]
        elapsed = np.array([0.0, 12.345, 1000.0 / 7.0, 3.1])
        draws = rng.random((4, 1000))
        nodes, arrivals = kernels.walk_block(csr, origins, draws, elapsed)
        for lane, (node, at) in enumerate(zip(origins, elapsed.tolist())):
            for step, u in enumerate(draws[lane].tolist()):
                lo = int(csr.indptr[node])
                j = lo + int(u * (int(csr.indptr[node + 1]) - lo))
                node, at = int(csr.indices[j]), at + float(csr.lats[j])
                assert nodes[lane, step] == node
                assert arrivals[lane, step] == at  # exact: same IEEE op order

    def test_padded_steps_add_no_message_arrival_or_receiver(self):
        csr = sink_csr()
        draws = np.random.default_rng(0).random((3, 5))
        nodes, arrivals = kernels.walk_block(csr, [3, 0, 4], draws, 0.0)
        assert nodes.tolist() == [[0, 1, 2, 5, 5], [1, 2, 5, 5, 5], [5] * 5]
        inf = float("inf")
        assert arrivals.tolist() == [
            [300.0, 700.0, 1400.0, inf, inf],
            [400.0, 1100.0, inf, inf, inf],
            [inf] * 5,
        ]
        visited, n_messages, buckets = one_delivery(csr, 3, draws[:2], 0.0, 10)
        assert (visited.tolist(), n_messages, buckets) == ([0, 1, 2], 6, {0: 40.0, 1: 20.0})
        assert one_delivery(csr, 4, draws, 0.0, 10)[1:] == (0, {})
        miss = kernels.rw_search(csr, 3, draws[:2], np.zeros(5, dtype=bool), 0.0)
        buckets = by_second(miss.first_second, miss.counts, 10)
        assert (miss.counts.sum(), buckets, miss.hit_node) == (6, {0: 40.0, 1: 20.0}, None)


class TestSecondCounts:
    def test_empty(self):
        first, counts = kernels.second_counts(np.empty(0))
        assert (first, counts.tolist()) == (0, [])

    def test_integral_size_exact(self):
        elapsed = np.array([100.0, 900.0, 1100.0, 2500.0])  # ms
        secs = kernels.arrival_seconds(10.0, elapsed)
        buckets = by_second(*kernels.second_counts(secs), 100)
        assert buckets == {10: 200.0, 11: 100.0, 12: 100.0}
        first, counts = kernels.second_counts(secs, [1, 2, 0, 4])
        assert (first, counts.tolist()) == (10, [3.0, 0.0, 4.0])

    def test_matches_loop_accumulation(self):
        rng = np.random.default_rng(13)
        elapsed = np.cumsum(rng.random(5000) * 30.0)
        size = 424  # ad-sized integral payload
        secs = kernels.arrival_seconds(123.0, elapsed)
        buckets = by_second(*kernels.second_counts(secs), size)
        expect = {}
        for e in elapsed.tolist():
            s = int(123.0 + e / 1000.0)
            expect[s] = expect.get(s, 0.0) + size
        assert buckets == expect


class TestReceivers:
    def test_sorted_unique_source_dropped(self):
        seen = np.bincount(np.array([3, 1, 3, 0, 1]), minlength=5)
        flags = np.array([True, False, True, True, True])
        got = kernels.receivers(np.stack([seen, flags]), [1, 4])
        assert [list(row) for row in got] == [[0, 3], [0, 2, 3]]

    def test_empty(self):
        got = kernels.receivers(np.zeros((2, 4), dtype=np.int64), [0, 1])
        assert [len(row) for row in got] == [0, 0]


class TestRwDelivery:
    def test_stranded_source_no_messages(self):
        topo = OverlayTopology(
            name="isolated",
            n=2,
            edges=np.empty((0, 2), dtype=np.int64),
            physical_ids=np.arange(2),
        )
        csr = Overlay(topo).walk_csr()
        visited, n, buckets = one_delivery(
            csr, 0, np.random.default_rng(0).random((5, 10)), 0.0, 100
        )
        assert n == 0 and buckets == {} and len(visited) == 0

    def test_counts_and_budget(self):
        csr = random_csr(seed=5)
        draws = np.random.default_rng(1).random((5, 40))
        visited, n, buckets = one_delivery(csr, 0, draws, 0.0, 100)
        assert n == 5 * 40  # nobody strands in a connected-ish random graph
        assert sum(buckets.values()) == n * 100
        assert len(visited) >= 1

    def test_each_ad_owns_a_trimmed_count_row(self):
        """An ad's counts are its own copy, from its first second with an
        arrival to its last, so a walk kept for later holds no batch-wide
        matrix; an ad that never stepped keeps an empty row."""
        csr = sink_csr()
        draws = np.random.default_rng(3).random(2 * (6 + 2))
        got = kernels.rw_delivery_batch(csr, [3, 4], [6, 2], 2, draws, [0.0, 7.5])
        (_, n_walk, first, counts), (_, n_iso, _, empty) = got
        assert counts.base is None and empty.base is None
        assert counts[0] and counts[-1] and counts.sum() == n_walk > 0
        assert first == 0  # 3 -> 0 costs 300 ms: the first arrival is in second 0
        assert n_iso == 0 and len(empty) == 0


class TestRwSearch:
    def test_miss_charges_full_ttl(self):
        csr = random_csr(seed=6, n=50)
        draws = np.random.default_rng(2).random((3, 64))
        match = np.zeros(50, dtype=bool)  # nothing matches
        res = kernels.rw_search(csr, 0, draws, match, 0.0)
        assert res.hit_node is None and res.hit_time_ms is None
        assert res.counts.sum() == 3 * 64

    def test_hit_truncates_charging(self):
        csr = random_csr(seed=6, n=50)
        draws = np.random.default_rng(2).random((3, 512))
        match = np.ones(50, dtype=bool)
        match[0] = False
        res = kernels.rw_search(csr, 0, draws, match, 0.0)
        # Every first step hits, so the hit is one hop out and each walker
        # is charged exactly its first step (it started at time 0 < hit).
        assert res.hit_node is not None
        assert res.hit_time_ms == 15.0
        assert res.counts.sum() == 3
