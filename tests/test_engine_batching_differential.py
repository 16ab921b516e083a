"""Differential tests: frontier flood kernels and batched ASAP rounds vs
the oracles in ``tests/oracles/``.

The batched paths promise **bit-identical** observable behaviour to the
plain implementations they replaced, across every layer:

* flooding search: the frontier kernel (``flood_frontier``, TTLs short of
  and past the overlay's diameter) vs the full-edge-array Bellman-Ford
  (``flood_reach_reference``);
* ASAP dissemination and ads requests: masked writes on the dense ads
  state vs ``OracleAsapSearch`` (object-backed, one method call per ad),
  down to repository, cacher and ledger state;
* whole runs: blake2b run fingerprints must be bit-equal between the
  product and ``oracle_arm()`` (which swaps every oracle in at once, so
  the composition is covered, not just each kernel in isolation), and
  between serial and ``jobs=2`` sweeps.

All cases run with churn enabled.
"""

import numpy as np
import pytest

from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology
from repro.search.flooding import flood_reach
from repro.sim import kernels
from repro.simulation.config import scaled_config
from repro.simulation.runner import run_experiment

from tests.oracles import oracle_arm
from tests.oracles.flood import flood_reach_reference
from tests.oracles.repository import StateRow, snapshot
from tests.test_walk_kernels_differential import ledger_state, make_overlay

SEEDS = [0, 1, 2]


def small_config(algorithm, seed):
    return scaled_config(
        algorithm=algorithm,
        topology="random",
        n_peers=250,
        n_queries=250,  # churn defaults to n_queries/30 joins + leaves
        seed=seed,
        use_physical_network=False,
        warmup_s=40.0,
    )


# ------------------------------------------------------------- flood kernels
class TestFloodKernelDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("ttl", [1, 3, 6, 12, 64])
    def test_flood_frontier_matches_reference(self, seed, ttl):
        ov = make_overlay(seed)
        fh_k, arr_k, msg_k = flood_reach(ov, source=0, ttl=ttl)
        fh_r, arr_r, msg_r = flood_reach_reference(ov, source=0, ttl=ttl)
        assert np.array_equal(fh_k, fh_r)
        assert np.array_equal(arr_k, arr_r)  # bit-equal floats
        assert msg_k == msg_r
        if ttl == 64:
            # Far past the diameter the arrivals are final a round early,
            # so the kernel's last round changes nothing: it leaves through
            # the die-out fold, which the message count above checks.
            _, arr_early, _ = flood_reach_reference(ov, source=0, ttl=ttl - 1)
            assert np.array_equal(arr_early, arr_r)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flood_matches_reference_under_churn(self, seed):
        ov = make_overlay(seed)
        rng = np.random.default_rng(seed + 30)
        leaves = rng.choice(np.arange(10, 400), size=15, replace=False)
        for node in leaves.tolist():
            ov.leave(node)
            fh_k, arr_k, msg_k = flood_reach(ov, source=0, ttl=4)
            fh_r, arr_r, msg_r = flood_reach_reference(ov, source=0, ttl=4)
            assert np.array_equal(fh_k, fh_r)
            assert np.array_equal(arr_k, arr_r)
            assert msg_k == msg_r

    def test_a_flood_that_dies_out_counts_its_last_ring(self):
        """On a cycle the last node reached has degree 2, so the die-out
        fold adds its one forward (on the random overlays above the last
        ring is almost always degree-1 leaves, which forward nothing)."""
        n = 8
        edges = np.array([[i, i + 1] for i in range(n - 1)] + [[0, n - 1]])
        topo = OverlayTopology(name="cycle", n=n, edges=edges, physical_ids=np.arange(n))
        ov = Overlay(topo, default_edge_latency_ms=10.0)
        fh_k, arr_k, msg_k = flood_reach(ov, source=0, ttl=10)
        fh_r, arr_r, msg_r = flood_reach_reference(ov, source=0, ttl=10)
        assert np.array_equal(fh_k, fh_r) and np.array_equal(arr_k, arr_r)
        assert msg_k == msg_r == 2 + (n - 1)

    def test_bfs_matches_reference_hops(self):
        """Bit 0 of a bit-parallel pass is the flood's receivers (the
        nodes at hop 1..6) and transmissions; ``tests/test_flood_words.py``
        covers every bit of drawn passes."""
        ov = make_overlay(5)
        csr = ov.walk_csr()
        words = kernels.flood_words(csr, [0], 6)
        got, msg_k = kernels.flood_receivers(csr, words, 0, 0)
        fh_r, _, msg_r = flood_reach_reference(ov, source=0, ttl=6)
        assert got.tolist() == np.flatnonzero(fh_r > 0).tolist()
        assert msg_k == msg_r

    @staticmethod
    def assert_pass_rows_match(ov, sources, ttl):
        first_hop, arrival, n_messages = kernels.flood_frontier(
            ov.walk_csr(), sources, ttl
        )
        assert first_hop.shape == arrival.shape == (len(sources), ov.n)
        for row, source in enumerate(sources):
            fh_r, arr_r, msg_r = flood_reach_reference(ov, source, ttl)
            assert np.array_equal(first_hop[row], fh_r)
            assert np.array_equal(arrival[row], arr_r)  # bit-equal floats
            assert n_messages[row] == msg_r

    @pytest.mark.parametrize("kind", ["random", "powerlaw", "crawled"])
    @pytest.mark.parametrize("ttl", [1, 2, 3, 4, 5, 6])
    def test_every_row_of_a_pass_is_the_reference_flood(self, kind, ttl):
        """Passes of 1, 2, 16 and the byte budget's largest number of
        sources, on every overlay kind, then on a churned copy."""
        from repro.network.topology import build_topology

        topo = build_topology(kind, 300, rng=np.random.default_rng(ttl))
        ov = Overlay(topo, default_edge_latency_ms=15.0)
        rng = np.random.default_rng(100 + ttl)
        widest = kernels.flood_pass_sources(ov.walk_csr())
        for churned in (False, True):
            if churned:
                for node in rng.choice(300, 40, replace=False).tolist():
                    ov.leave(node)
            live = np.flatnonzero(ov.live_mask)
            for size in (1, 2, 16, widest):
                sources = rng.choice(live, size, replace=False).tolist()
                self.assert_pass_rows_match(ov, sources, ttl)

    def test_isolated_and_dying_floods_share_a_pass(self):
        """An isolated source and a flood that dies out at hop 2 ride in a
        pass with floods that reach their TTL."""
        ov = make_overlay(4)
        for v in ov.live_neighbors(0)[0].tolist():
            ov.leave(v)
        assert not len(ov.live_neighbors(0)[0])
        live = [v for v in np.flatnonzero(ov.live_mask).tolist() if v != 0]
        self.assert_pass_rows_match(ov, [live[0], 0, *live[1:15]], 6)
        n = 12
        edges = np.array([[0, 1], [1, 2]] + [[i, i + 1] for i in range(3, n - 1)])
        topo = OverlayTopology(name="paths", n=n, edges=edges, physical_ids=np.arange(n))
        paths = Overlay(topo, default_edge_latency_ms=10.0)
        self.assert_pass_rows_match(paths, [3, 0, 11], 6)


# ----------------------------------------------------------- run-level equal
def run_fingerprint(config):
    result = run_experiment(config, audit=True)
    assert result.audit is not None and result.audit.ok
    return result.fingerprint


@pytest.mark.parametrize("algorithm", ["flooding", "asap_fld", "asap_rw"])
class TestRunFingerprints:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reference_vs_batched(self, algorithm, seed):
        """The whole run -- outcomes, ledgers, churn interleaving -- is
        bit-identical with every batched path swapped for its oracle."""
        config = small_config(algorithm, seed)
        with oracle_arm():
            reference = run_fingerprint(config)
        batched = run_fingerprint(config)
        assert reference == batched


class TestSerialVsParallelFingerprints:
    def test_jobs2_bit_equal(self):
        """A two-worker sweep reproduces the serial fingerprints exactly,
        batched paths and all.  The cells share one seed, so the sweep's
        workers replay the workload the parent built once; the serial
        fingerprints are taken with a cold workload cache per cell, and a
        serial sweep that shares the workload -- ASAP(FLD) replaying its
        content changes and churn before flooding -- matches them too."""
        from repro.experiments.parallel import run_cells
        from repro.network.substrate import clear_substrate_cache

        configs = [
            small_config(algo, seed=2)
            for algo in ("asap_fld", "flooding", "asap_rw")
        ]
        cold = []
        for config in configs:
            clear_substrate_cache()
            cold.append(run_fingerprint(config))
        clear_substrate_cache()
        warm = [r.fingerprint for r in run_cells(configs, jobs=1, audit=True)]
        clear_substrate_cache()
        outcomes = run_cells(configs, jobs=2, audit=True)
        parallel = [r.fingerprint for r in outcomes]
        assert cold == warm == parallel


# ----------------------------------------------- protocol-level state equal
class TestAsapStateDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_repos_cachers_ledger_bit_equal(self, seed):
        """Beyond outcome fingerprints: the pooled repository state --
        entries, versions, behind sets, cachers, ledger buckets -- matches
        the oracle protocol's after the same warm-up, queries and churn."""
        from contextlib import nullcontext

        from repro.simulation.runner import build_algorithm
        from repro.network.topology import random_topology
        from repro.sim.engine import SimulationEngine
        from repro.sim.metrics import BandwidthLedger
        from repro.sim.random import RandomStreams
        from repro.workload.edonkey import synthesize_content

        config = small_config("asap_fld", seed)

        def run(reference: bool):
            streams = RandomStreams(seed=config.seed)
            topo = random_topology(
                n=config.n_peers, avg_degree=4.0, rng=streams.get("topology")
            )
            ov = Overlay(topo, default_edge_latency_ms=15.0)
            dist = synthesize_content(config.edonkey, streams.get("content"))
            ledger = BandwidthLedger()
            with oracle_arm() if reference else nullcontext():
                algo = build_algorithm(
                    config, ov, dist.index, ledger, streams.get("algorithm"),
                    dist.interests,
                )
            engine = SimulationEngine()
            algo.warmup(engine, start=0.0, duration=20.0)
            engine.run(until=25.0)
            # Queries + churn interleaved.
            for i in range(40):
                node = 3 * i % config.n_peers
                if ov.is_live(node):
                    algo.search(node, ["rock"], 25.0 + i)
                if i % 7 == 0 and ov.is_live(i):
                    ov.leave(i)
                    algo.on_leave(i, 25.0 + i)
                if i % 11 == 0 and not ov.is_live(max(0, i - 7)):
                    ov.join(max(0, i - 7))
                    algo.on_join(max(0, i - 7), 25.0 + i)
            nodes = range(config.n_peers)
            repos = (
                algo.repos if reference else [StateRow(algo.state, v) for v in nodes]
            )
            repo_state = [snapshot(repo) for repo in repos]
            # A source's cachers: the product's state column vs the
            # oracle's per-repository membership scan.
            cacher_state = {
                s: [v for v in nodes if s in repos[v]]
                if reference
                else np.flatnonzero(algo.state.held_mask(sources=s)).tolist()
                for s in nodes
            }
            return repo_state, cacher_state, ledger_state(ledger)

        assert run(reference=True) == run(reference=False)
