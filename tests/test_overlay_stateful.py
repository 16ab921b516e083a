"""Model-based test: the overlay's one per-epoch view under arbitrary churn.

The overlay caches one structure per epoch -- the live CSR -- and
``live_neighbors`` reads its rows; this machine churns nodes arbitrarily and
checks both against a from-scratch recomputation from ``topology.edges`` and
the model's own live mask -- the exact bug class (a stale cache) that the
epoch counter exists to prevent -- and that an epoch builds its CSR once.
"""

from unittest import mock

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.network import overlay as overlay_module
from repro.network.overlay import Overlay
from repro.network.topology import random_topology
from repro.sim.kernels import WalkCsr

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

    @rule(node=st.integers(min_value=0, max_value=N - 1))
    def toggle(self, node) -> None:
        if self.model_live[node]:
            self.overlay.leave(node)
            self.model_live[node] = False
        else:
            self.overlay.join(node)
            self.model_live[node] = True

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
