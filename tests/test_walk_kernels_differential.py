"""Differential tests: kernel walk paths vs the per-step loops they replaced.

The vectorised kernels (repro.sim.kernels) promise **bit-identical**
results to the per-step loops they replaced: same visited sets, same
message counts, same per-second ledger buckets, same SearchOutcome floats.
Both paths consume the same pre-drawn ``(walkers, steps)`` uniform matrix
in the same order, so any divergence is a kernel bug, not noise.

Covered here, over multiple seeds:

* ASAP(RW) and ASAP(GSA) ad delivery: ``deliver`` (kernel) vs
  ``tests.oracles.delivery.deliver_reference`` (per-step loop);
* random-walk search: ``_search_impl`` (kernel + post-hoc truncation) vs
  ``_search_loop`` (the heap loop the product keeps for overlays with
  non-positive edge latency);
* a churn case: deliveries/searches interleaved with join/leave events,
  exercising the per-epoch WalkCsr cache invalidation;
* the zero-latency fallback: with non-positive edge latencies
  ``csr.lats_positive`` is false and the search must route through
  ``_search_loop`` (the truncation proof needs strictly positive
  latencies).
"""

import numpy as np
import pytest

from repro.asap.ads import Ad, AdType
from repro.asap.delivery import GsaAdForwarder, RandomWalkAdForwarder, make_forwarder
from repro.network.overlay import Overlay
from repro.network.topology import OverlayTopology, random_topology
from repro.search.base import MessageSizes
from repro.search.random_walk import RandomWalkSearch
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.workload.content import ContentIndex, Document

from tests.oracles.delivery import deliver_reference

SEEDS = [0, 1, 2, 3]
FORWARDER_KINDS = ["rw", "gsa"]


def make_overlay(seed, n=400, avg_degree=4.0, **kwargs):
    topo = random_topology(n=n, avg_degree=avg_degree, rng=np.random.default_rng(1000 + seed))
    kwargs.setdefault("default_edge_latency_ms", 15.0)
    return Overlay(topo, **kwargs)


def make_ad(source=3):
    return Ad(
        source=source,
        ad_type=AdType.FULL,
        topics=frozenset({1, 2}),
        version=1,
        n_set_bits=40,
    )


def deliver(fw, path, *args, **kwargs):
    """Run one delivery on the kernel path or on its loop oracle."""
    if path == "deliver":
        return fw.deliver(*args, **kwargs)
    return deliver_reference(fw, *args, **kwargs)


def ledger_state(ledger):
    """Full observable ledger state: buckets, totals, message counts."""
    return (
        {s: dict(cats) for s, cats in ledger._buckets.items()},
        dict(ledger._totals),
        dict(ledger._message_counts),
    )


# ------------------------------------------------------------------ delivery
class TestDeliveryDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", FORWARDER_KINDS)
    def test_kernel_matches_reference(self, seed, kind):
        ad = make_ad()
        reports = []
        states = []
        for path in ("deliver", "deliver_reference"):
            ov = make_overlay(seed)
            fw = make_forwarder(
                kind, ov, BandwidthLedger(), MessageSizes(), np.random.default_rng(seed)
            )
            reports.append(deliver(fw, path, ad, now=50.0, budget=800))
            states.append(ledger_state(fw.ledger))
        kernel, reference = reports
        assert kernel.visited == reference.visited
        assert kernel.messages == reference.messages
        assert kernel.bytes == reference.bytes
        assert states[0] == states[1]

    @pytest.mark.parametrize("kind", FORWARDER_KINDS)
    def test_offline_source_is_noop(self, kind):
        ov = make_overlay(9)
        ov.leave(3)
        fw = make_forwarder(
            kind, ov, BandwidthLedger(), MessageSizes(), np.random.default_rng(0)
        )
        for path in ("deliver", "deliver_reference"):
            report = deliver(fw, path, make_ad(source=3), now=0.0)
            assert report.messages == 0 and report.visited == frozenset()

    @pytest.mark.parametrize("kind", FORWARDER_KINDS)
    def test_stranded_source(self, kind):
        # A live source whose every neighbour is offline takes zero steps.
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        topo = OverlayTopology(name="p3", n=3, edges=edges, physical_ids=np.arange(3))
        ov = Overlay(topo, default_edge_latency_ms=5.0)
        ov.leave(1)
        fw = make_forwarder(
            kind, ov, BandwidthLedger(), MessageSizes(), np.random.default_rng(0)
        )
        for path in ("deliver", "deliver_reference"):
            report = deliver(fw, path, make_ad(source=0), now=0.0)
            assert report.messages == 0 and report.visited == frozenset()
        assert fw.ledger._buckets == {}

    @pytest.mark.parametrize("kind", FORWARDER_KINDS)
    def test_kernel_matches_reference_under_churn(self, kind):
        """Deliveries interleaved with churn: the WalkCsr cache must be
        rebuilt each epoch, keeping the kernel on the same live view as
        the reference."""
        ad = make_ad()
        rng_churn = np.random.default_rng(77)
        leaves = rng_churn.choice(np.arange(10, 400), size=12, replace=False)

        def run(path):
            ov = make_overlay(2)
            fw = make_forwarder(
                kind, ov, BandwidthLedger(), MessageSizes(), np.random.default_rng(5)
            )
            reports = []
            for i, node in enumerate(leaves.tolist()):
                reports.append(deliver(fw, path, ad, now=10.0 * i, budget=400))
                ov.leave(node)
                if i % 3 == 0:
                    ov.join(node)  # immediate rejoin: another epoch bump
                    ov.leave(node)
            return reports, ledger_state(fw.ledger)

        k_reports, k_state = run("deliver")
        r_reports, r_state = run("deliver_reference")
        for k, r in zip(k_reports, r_reports):
            assert k.visited == r.visited
            assert k.messages == r.messages
        assert k_state == r_state


# -------------------------------------------------------------------- search
def build_search(ov, holders, seed, **kwargs):
    content = ContentIndex()
    content.register_document(Document(doc_id=1, class_id=0, keywords=("rock",)))
    for h in holders:
        content.place(h, 1)
    return RandomWalkSearch(
        ov, content, BandwidthLedger(), rng=np.random.default_rng(seed), **kwargs
    )


def outcome_tuple(o):
    return (o.success, o.response_time_ms, o.messages, o.cost_bytes, o.results)


class TestRandomWalkSearchDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("holders", [(7, 123, 391), ()], ids=["hit", "miss"])
    def test_kernel_matches_reference(self, seed, holders):
        results = []
        for path in ("_search_impl", "_search_loop"):
            algo = build_search(make_overlay(seed), holders, seed, ttl=256)
            out = getattr(algo, path)(0, ["rock"], 100.0)
            results.append((outcome_tuple(out), ledger_state(algo.ledger)))
        assert results[0] == results[1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernel_matches_reference_under_churn(self, seed):
        rng_churn = np.random.default_rng(seed + 50)
        leaves = rng_churn.choice(np.arange(10, 400), size=8, replace=False)

        def run(path):
            ov = make_overlay(seed)
            algo = build_search(ov, (7, 123, 391), seed, ttl=128)
            outs = []
            for i, node in enumerate(leaves.tolist()):
                outs.append(outcome_tuple(getattr(algo, path)(0, ["rock"], 10.0 * i)))
                ov.leave(node)
            return outs, ledger_state(algo.ledger)

        assert run("_search_impl") == run("_search_loop")

    def test_zero_latency_falls_back_to_search_loop(self, monkeypatch):
        """``csr.lats_positive`` -- observed, not configured -- selects
        ``_search_loop``; the kernel is never entered."""
        from repro.sim import kernels

        ov = make_overlay(1, default_edge_latency_ms=0.0)
        algo = build_search(ov, (7,), 1, ttl=64)
        assert not ov.walk_csr().lats_positive
        monkeypatch.setattr(
            kernels, "rw_search", lambda *a, **k: pytest.fail("kernel entered")
        )
        out_impl = algo._search_impl(0, ["rock"], 0.0)
        algo2 = build_search(make_overlay(1, default_edge_latency_ms=0.0), (7,), 1, ttl=64)
        out_loop = algo2._search_loop(0, ["rock"], 0.0)
        assert outcome_tuple(out_impl) == outcome_tuple(out_loop)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reply_bytes_recorded_at_arrival(self, seed):
        """Satellite fix: the QUERY_RESPONSE bytes land at the reply's
        arrival time (hit + direct reply hop), not at the hit instant."""
        algo = build_search(make_overlay(seed), (7, 123, 391), seed, ttl=256)
        now = 100.0
        out = algo.search(0, ["rock"], now=now)
        assert out.success
        reply_seconds = [
            s
            for s, cats in algo.ledger._buckets.items()
            if TrafficCategory.QUERY_RESPONSE in cats
        ]
        assert reply_seconds == [int(now + out.response_time_ms / 1000.0)]


# -------------------------------------------------------- draw-sizing audit
class TestGsaDrawSizing:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_never_outrun(self, seed):
        """A GSA walker takes at most per_walker steps (each step costs at
        least one budget unit), so the (walkers, per_walker) draw matrix is
        always long enough: the delivery completes without the historical
        modulo wrap and stays bit-identical to the reference."""
        ov = make_overlay(seed)
        fw = GsaAdForwarder(
            ov, BandwidthLedger(), MessageSizes(), np.random.default_rng(seed)
        )
        # Tiny budget: per_walker == 1, the regime where a wrap would have
        # mattered if a walker could ever take a second step.
        report = fw.deliver(make_ad(), now=0.0, budget=5)
        assert report.messages <= 5
        ref = deliver_reference(
            GsaAdForwarder(
                make_overlay(seed),
                BandwidthLedger(),
                MessageSizes(),
                np.random.default_rng(seed),
            ),
            make_ad(),
            now=0.0,
            budget=5,
        )
        assert report.visited == ref.visited
        assert report.messages == ref.messages
