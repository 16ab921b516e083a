"""Model-based test: the overlay's one per-epoch view under arbitrary churn.

The overlay caches one structure per epoch -- the live CSR -- and
``live_neighbors`` reads its rows; this machine churns nodes arbitrarily and
checks both against a from-scratch recomputation from ``topology.edges`` and
the model's own live mask -- the exact bug class (a stale cache) that the
epoch counter exists to prevent -- and that an epoch builds its CSR once.
The walk rows an epoch carries over from the last one that built them, with
only the churned neighbourhoods rebuilt, must equal a fresh build, however
many churn events and unread epochs lie between two reads.
"""

import gc
import weakref
from unittest import mock

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.network import overlay as overlay_module
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.simulation.runner import run_experiment
from repro.sim.kernels import WalkCsr

from tests.test_engine_batching_differential import small_config

N = 25


class OverlayChurnMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        topo = random_topology(N, avg_degree=4.0, rng=np.random.default_rng(7))
        self.edge_lats = np.random.default_rng(8).uniform(1.0, 50.0, len(topo.edges))
        self.overlay = Overlay(topo, edge_latencies_ms=self.edge_lats)
        self.edges = topo.edges
        self.model_live = np.ones(N, dtype=bool)
        self.builds = 0
        self.epochs_read = set()

        def counting(*args):
            self.builds += 1
            return WalkCsr(*args)

        self.patch = mock.patch.object(overlay_module, "WalkCsr", counting)
        self.patch.start()

    def teardown(self) -> None:
        if hasattr(self, "patch"):
            self.patch.stop()

    def wired_live(self, node):
        """``[(neighbour, latency)]`` of ``node`` by the model alone."""
        if not self.model_live[node]:
            return []
        return sorted(
            (int(v) if u == node else int(u), float(lat))
            for (u, v), lat in zip(self.edges, self.edge_lats)
            if node in (u, v) and self.model_live[u] and self.model_live[v]
        )

    def flip(self, node) -> None:
        if self.model_live[node]:
            self.overlay.leave(node)
            self.model_live[node] = False
        else:
            self.overlay.join(node)
            self.model_live[node] = True

    @rule(node=st.integers(min_value=0, max_value=N - 1))
    def toggle(self, node) -> None:
        self.flip(node)

    @rule(
        nodes=st.lists(st.integers(min_value=0, max_value=N - 1), min_size=2, max_size=6),
        build=st.booleans(),
    )
    def churn_between_reads(self, nodes, build) -> None:
        """Several churn events before the rows are read again; the epochs
        in between get a CSR nobody walks (as a flood would) or none."""
        for node in nodes:
            self.flip(node)
            if build:
                self.overlay.walk_csr()
                self.epochs_read.add(self.overlay.epoch)

    @rule(node=st.integers(min_value=0, max_value=N - 1))
    def touch_cache(self, node) -> None:
        """Read the cached view so stale reuse would be possible."""
        self.overlay.live_neighbors(node)
        self.epochs_read.add(self.overlay.epoch)

    @invariant()
    def csr_matches_model(self) -> None:
        csr = self.overlay.walk_csr()
        self.epochs_read.add(self.overlay.epoch)
        assert csr.deg.tolist() == [len(self.wired_live(v)) for v in range(N)]
        for node in range(N):
            lo, hi = csr.indptr[node], csr.indptr[node + 1]
            row = zip(csr.indices[lo:hi].tolist(), csr.lats[lo:hi].tolist())
            assert sorted(row) == self.wired_live(node)

    @invariant()
    def carried_rows_match_a_fresh_build(self) -> None:
        csr = self.overlay.walk_csr()
        self.epochs_read.add(self.overlay.epoch)
        fresh = WalkCsr(csr.indptr, csr.indices, csr.lats)
        assert csr.nbr == fresh.nbr
        assert csr.dgf == fresh.dgf
        assert csr.nbr_lat == fresh.nbr_lat
        for u in range(N):
            lo, hi = csr.indptr[u], csr.indptr[u + 1]
            assert csr.nbr_lat[u] == csr.lats[lo:hi].tolist()
            assert len(set(csr.nbr[u])) == len(csr.nbr[u])

    @invariant()
    def neighbors_match_model(self) -> None:
        for node in range(0, N, 5):
            nbrs, lats = self.overlay.live_neighbors(node)
            assert sorted(zip(nbrs.tolist(), lats.tolist())) == self.wired_live(node)

    @invariant()
    def one_build_per_epoch_read(self) -> None:
        assert self.overlay.walk_csr() is self.overlay.walk_csr()
        assert self.builds == len(self.epochs_read)

    @invariant()
    def live_count_matches(self) -> None:
        assert self.overlay.live_count() == int(self.model_live.sum())


OverlayChurnMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestOverlayChurn = OverlayChurnMachine.TestCase


def test_a_new_epoch_holds_the_previous_rows_not_the_previous_csr():
    overlay = Overlay(random_topology(N, avg_degree=4.0, rng=np.random.default_rng(3)))
    old = overlay.walk_csr()
    rows = old.nbr
    before = [list(row) for row in rows]
    gone = weakref.ref(old)
    del old
    overlay.leave(4)
    new = overlay.walk_csr()
    gc.collect()
    assert gone() is None
    assert new.nbr is not rows and rows == before  # copied, then patched
    assert new.nbr[4] == [] and all(4 not in row for row in new.nbr)


def test_a_random_walk_cell_builds_rows_and_no_flat_mirrors(monkeypatch):
    built = []

    def recording(*args):
        built.append(WalkCsr(*args))
        return built[-1]

    monkeypatch.setattr(overlay_module, "WalkCsr", recording)
    run_experiment(small_config("random_walk", 0))
    assert sum(csr._nbr is not None for csr in built) > 1
    assert not any(hasattr(csr, "_ix") for csr in built)
