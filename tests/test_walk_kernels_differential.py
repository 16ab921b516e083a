"""Differential tests: kernel walk paths vs the per-step loops they replaced.

The vectorised kernels (repro.sim.kernels) promise **bit-identical**
results to the per-step loops they replaced: same visited sets, same
message counts, same per-second ledger buckets, same SearchOutcome floats.
Both paths consume the same pre-drawn ``(walkers, steps)`` uniform matrix
in the same order, so any divergence is a kernel bug, not noise.

Covered here, over multiple seeds:

* ASAP(RW) and ASAP(GSA) ad delivery: ``deliver`` (kernel, or GSA's loop
  over the carried rows) vs ``tests.oracles.delivery.deliver_reference``
  (per-step loop over the CSR arrays), GSA also on hand-built CSRs where
  the push cap binds mid-row, a walk steps back onto its source and a
  walker strands mid-walk;
* random-walk search: ``_search_impl`` (kernel + post-hoc truncation) vs
  ``_search_loop`` (the heap loop the product keeps for overlays with
  non-positive edge latency);
* GSA search: ``GsaSearch._search_impl`` (heap loop over the carried rows)
  vs ``tests.oracles.gsa.gsa_search_reference`` (the same loop over flat
  lists of the CSR arrays) -- outcomes, ledger and RNG state, under churn,
  a probe row cut by the budget, probe hits, ties and strands;
* walks computed ahead: a window of scheduled ads (full and refresh
  budgets mixed) walked in batches behind ``RandomWalkAdForwarder.deliver``
  vs the per-step loop run ad by ad on the same keyed draws -- reports,
  ledger and delivery ordinals -- and a walk computed ahead is never handed
  to a delivery after a join or leave, a budget change or at another time;
* a churn case: deliveries/searches interleaved with join/leave events,
  exercising the per-epoch WalkCsr cache invalidation;
* the zero-latency fallback: with non-positive edge latencies
  ``csr.lats_positive`` is false and the search must route through
  ``_search_loop`` (the truncation proof needs strictly positive
  latencies).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asap.ads import Ad, AdType
from repro.asap.delivery import (
    GsaAdForwarder,
    RandomWalkAdForwarder,
    make_forwarder,
    walk_draws,
    walk_key,
)
from repro.asap.protocol import refresh_budget
from repro.network.overlay import Overlay
from repro.network.topology import (
    OverlayTopology,
    crawled_topology,
    powerlaw_topology,
    random_topology,
)
from repro.search import gsa, random_walk
from repro.search.base import QUERY_BYTES
from repro.search.gsa import GsaSearch
from repro.search.random_walk import RandomWalkSearch
from repro.sim import kernels
from repro.sim.metrics import BandwidthLedger, TrafficCategory
from repro.workload.content import ContentIndex, Document

from tests.oracles import gsa as gsa_oracle
from tests.oracles.delivery import deliver_reference
from tests.oracles.gsa import gsa_search_reference

SEEDS = [0, 1, 2, 3]
FORWARDER_KINDS = ["rw", "gsa"]


def make_overlay(seed, n=400, avg_degree=4.0, **kwargs):
    topo = random_topology(n=n, avg_degree=avg_degree, rng=np.random.default_rng(1000 + seed))
    kwargs.setdefault("default_edge_latency_ms", 15.0)
    return Overlay(topo, **kwargs)


TOPOLOGIES = {
    "random": lambda n, rng: random_topology(n=n, avg_degree=4.0, rng=rng),
    "powerlaw": lambda n, rng: powerlaw_topology(n=n, rng=rng),
    "crawled": lambda n, rng: crawled_topology(n=n, rng=rng),
}


def varied_overlay(kind, n, seed, isolate=None):
    """An overlay with one random latency per edge (so elapsed-time sums
    are sensitive to addition order); ``isolate`` loses every neighbour."""
    rng = np.random.default_rng(2000 + seed)
    topo = TOPOLOGIES[kind](n, rng)
    ov = Overlay(topo, edge_latencies_ms=rng.uniform(2.0, 180.0, len(topo.edges)))
    if isolate is not None:
        for v in ov.live_neighbors(isolate)[0].tolist():
            ov.leave(v)
    return ov


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
    """Full observable ledger state: per-second bytes, totals (in the order
    categories were first booked), message counts."""
    totals = ledger.category_totals()
    return (
        {c: nbytes.tolist() for c, nbytes in ledger.per_second().items()},
        list(totals.items()),
        {c: ledger.total_messages([c]) for c in totals},
    )


def bytes_by_second(first_second, counts, size):
    """``{second: bytes}`` of a walk's per-second message ``counts``."""
    return {
        first_second + i: n * size for i, n in enumerate(counts.tolist()) if n
    }


def rows_csr(rows):
    """A directed ``WalkCsr`` from per-node rows of ``(head, lat)``."""
    return kernels.WalkCsr(
        np.cumsum([0] + [len(r) for r in rows]),
        np.array([h for r in rows for h, _ in r], dtype=np.int64),
        np.array([lat for r in rows for _, lat in r], dtype=np.float64),
    )


def sink_csr():
    """Directed: 3 -> 0 -> 1 -> 2 (no way out of 2); node 4 isolated."""
    return rows_csr([[(1, 400.0)], [(2, 700.0)], [], [(0, 300.0)], []])


def hand_overlay(csr):
    """An all-live overlay of ``csr.n`` nodes whose walk view is ``csr``."""
    n = csr.n
    ov = Overlay(OverlayTopology("hand", n, np.empty((0, 2), np.int64), np.arange(n)))
    ov.walk_csr = lambda: csr
    return ov


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
                kind, ov, BandwidthLedger(), seed
            )
            reports.append(deliver(fw, path, ad, now=50.0, budget=800))
            states.append(ledger_state(fw.ledger))
        kernel, reference = reports
        assert kernel.visited.tolist() == reference.visited.tolist()
        assert kernel.messages == reference.messages
        assert kernel.bytes == reference.bytes
        assert states[0] == states[1]

    @pytest.mark.parametrize("kind", FORWARDER_KINDS)
    def test_offline_source_is_noop(self, kind):
        ov = make_overlay(9)
        ov.leave(3)
        fw = make_forwarder(
            kind, ov, BandwidthLedger(), 0
        )
        for path in ("deliver", "deliver_reference"):
            report = deliver(fw, path, make_ad(source=3), now=0.0)
            assert report.messages == 0 and report.visited.tolist() == []

    @pytest.mark.parametrize("kind", FORWARDER_KINDS)
    def test_stranded_source(self, kind):
        # A live source whose every neighbour is offline takes zero steps.
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        topo = OverlayTopology(name="p3", n=3, edges=edges, physical_ids=np.arange(3))
        ov = Overlay(topo, default_edge_latency_ms=5.0)
        ov.leave(1)
        fw = make_forwarder(
            kind, ov, BandwidthLedger(), 0
        )
        for path in ("deliver", "deliver_reference"):
            report = deliver(fw, path, make_ad(source=0), now=0.0)
            assert report.messages == 0 and report.visited.tolist() == []
        assert fw.ledger.per_second() == {}

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
                kind, ov, BandwidthLedger(), 5
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
            assert k.visited.tolist() == r.visited.tolist()
            assert k.messages == r.messages
        assert k_state == r_state


def gsa_delivery_both(make_overlay_, ad, budget, seed=0, walkers=5, now=50.0):
    """One GSA delivery on the rows loop and on its oracle, each on a fresh
    overlay and forwarder; asserts report, ledger and delivery ordinals
    agree and returns the report."""
    arms = []
    for path in ("deliver", "deliver_reference"):
        fw = GsaAdForwarder(
            make_overlay_(), BandwidthLedger(), seed, walkers=walkers
        )
        report = deliver(fw, path, ad, now=now, budget=budget)
        arms.append((
            (report.visited.tolist(), report.messages, report.bytes),
            ledger_state(fw.ledger),
            fw.sent,
        ))
    assert arms[0] == arms[1]
    return report


class TestGsaDeliveryDifferential:
    """ASAP(GSA)'s loop over the carried rows against the per-step loop
    over the CSR arrays: three overlays and budgets, and hand-built CSRs."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("budget", [5, 60, 800])  # 5: per_walker == 1
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_varied_overlays(self, kind, budget, seed):
        report = gsa_delivery_both(
            lambda: varied_overlay(kind, 300, seed), make_ad(source=3), budget, seed
        )
        assert 0 < report.messages <= budget

    def test_cap_binds_mid_row(self):
        """Per-walker budget 3 on a hub of six: each walker steps onto the
        hub and pushes to two unreached nodes, the cap cutting the row."""
        csr = rows_csr([[(1, 5.0)], [(v, 8.0) for v in range(2, 8)]] + [[]] * 6)
        report = gsa_delivery_both(lambda: hand_overlay(csr), make_ad(source=0), 6, walkers=2)
        assert (report.messages, report.visited.tolist()) == (6, list(range(1, 6)))

    def test_walk_steps_back_onto_its_source(self):
        """Path 0-1-2 from 1: the walk returns to its source, which then
        pushes; the source never counts as a receiver."""
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        topo = OverlayTopology(name="p3", n=3, edges=edges, physical_ids=np.arange(3))
        report = gsa_delivery_both(
            lambda: Overlay(topo, edge_latencies_ms=np.array([30.0, 70.0])),
            make_ad(source=1), 4, walkers=1,
        )
        assert (report.messages, report.visited.tolist()) == (4, [0, 2])

    def test_walker_strands_mid_walk(self):
        """Directed 3 -> 0 -> 1 -> 2 with no way out of 2: every walker
        stops there with budget left."""
        report = gsa_delivery_both(lambda: hand_overlay(sink_csr()), make_ad(source=3), 20, walkers=2)
        # Walker 0: three steps and two pushes; walker 1: three steps.
        assert (report.messages, report.visited.tolist()) == (8, [0, 1, 2])


# ---------------------------------------------------------- walks computed ahead
def warmup_window(n, n_ads, seed, isolate=None, refresh_every=0):
    """``n_ads`` ads with 1-4 topics at jittered times, as ``[(time, seq,
    Ad, budget)]`` in scheduling (not dispatch) order: full ads with the
    default budget (None), and every ``refresh_every``-th a refresh ad with
    a tenth of it, as the protocol sends them."""
    rng = np.random.default_rng(3000 + seed)
    sources = rng.choice(n, size=n_ads, replace=False).tolist()
    if isolate is not None:
        sources[n_ads // 2] = isolate
    window = []
    for seq, source in enumerate(sources):
        when = float(rng.random() * 40.0)
        topics = frozenset(range(int(rng.integers(1, 5))))
        n_set_bits = int(rng.integers(5, 400))
        refresh = refresh_every and seq % refresh_every == 0
        ad = Ad(
            source=source,
            ad_type=AdType.REFRESH if refresh else AdType.FULL,
            topics=topics,
            version=1,
            n_set_bits=0 if refresh else n_set_bits,
        )
        window.append((when, seq, ad, "refresh" if refresh else None))
    return window


def window_budget(fw, ad, budget):
    if budget == "refresh":
        return int(refresh_budget(fw.default_budget(ad)))
    return budget


def window_schedule(window, fw):
    """The protocol's ``schedule`` for ``window``: the ads due at or after
    ``now``, soonest first, with the budgets they walk with."""
    events = sorted(window, key=lambda e: e[:2])

    def schedule(now, count):
        due = [(t, ad.source, ad, b) for t, _, ad, b in events if t >= now][:count]
        return (
            np.array([s for _, s, _, _ in due], dtype=np.int64),
            np.array([t for t, _, _, _ in due]),
            np.array(
                [window_budget(fw, ad, b) or fw.default_budget(ad) for _, _, ad, b in due],
                dtype=np.int64,
            ),
        )

    return schedule


def run_window(ov, window, seed, batched, budget_unit=40):
    """Deliver the window in dispatch order: through ``deliver`` with the
    window as its schedule (walks computed ahead in batches) or ad by ad
    through the per-step loop oracle."""
    fw = RandomWalkAdForwarder(ov, BandwidthLedger(), seed, budget_unit=budget_unit)
    if batched:
        fw.schedule = window_schedule(window, fw)
    step = fw.deliver if batched else lambda *a, **k: deliver_reference(fw, *a, **k)
    reports = [
        step(ad, t, budget=window_budget(fw, ad, b))
        for t, _, ad, b in sorted(window, key=lambda e: e[:2])
    ]
    return reports, ledger_state(fw.ledger), fw.sent


def assert_same_window(batch, oracle):
    (b_reports, b_ledger, b_sent), (o_reports, o_ledger, o_sent) = batch, oracle
    for b, o in zip(b_reports, o_reports):
        assert b.visited.tolist() == o.visited.tolist()
        # Receivers are ascending: the order repairs are pulled in downstream.
        assert (np.diff(b.visited) > 0).all()
        assert (b.messages, b.bytes) == (o.messages, o.bytes)
    assert b_ledger == o_ledger
    assert b_sent == o_sent


class _CountedBatches:
    """Records the sources of every ``rw_delivery_batch`` call."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = kernels.rw_delivery_batch

        def counted(csr, sources, *args):
            self.calls.append(list(sources))
            return real(csr, sources, *args)

        monkeypatch.setattr(kernels, "rw_delivery_batch", counted)


class TestLockstepBatchDifferential:
    """Scheduled ads walked ahead in batches == the per-step loop, ad by ad."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_batch_matches_loop_oracle(self, monkeypatch, kind, seed):
        window = warmup_window(300, 60, seed, refresh_every=3)
        assert len({len(ad.topics) for _, _, ad, _ in window}) > 1  # mixed |T|
        kernel = _CountedBatches(monkeypatch)
        batch = run_window(varied_overlay(kind, 300, seed), window, seed, True)
        assert len(kernel.calls) < len(window) / 4
        oracle = run_window(varied_overlay(kind, 300, seed), window, seed, False)
        assert sum(r.messages for r in batch[0]) > 0
        assert_same_window(batch, oracle)

    @pytest.mark.parametrize(
        "chunk_bytes,block,min_lanes", [(1, 1, 1), (6000, 7, 3), (40000, 64, 20)]
    )
    def test_every_chunk_and_block_boundary(self, monkeypatch, chunk_bytes, block, min_lanes):
        """Caps forced tiny: one ad per chunk / one step per block / lockstep
        down to one lane, then a few; every carry of (node, elapsed), every
        hand-over to the list recurrence and every flag/count accumulation
        across blocks is exercised."""
        monkeypatch.setattr(kernels, "LOCKSTEP_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(kernels, "LOCKSTEP_BLOCK", block)
        monkeypatch.setattr(kernels, "LOCKSTEP_MIN_LANES", min_lanes)
        window = warmup_window(120, 25, 5, refresh_every=4)
        batch = run_window(varied_overlay("crawled", 120, 5), window, 5, True)
        oracle = run_window(varied_overlay("crawled", 120, 5), window, 5, False)
        assert_same_window(batch, oracle)

    def test_isolated_source_strands(self):
        """A live source with no live neighbour sends nothing, batched or
        not, and its ordinal still counts the delivery."""
        window = warmup_window(150, 20, 7, isolate=11)
        batch = run_window(
            varied_overlay("random", 150, 7, isolate=11), window, 7, True
        )
        oracle = run_window(
            varied_overlay("random", 150, 7, isolate=11), window, 7, False
        )
        stranded = [
            r for r, (_, _, ad, _) in zip(batch[0], sorted(window, key=lambda e: e[:2]))
            if ad.source == 11
        ]
        assert [(r.messages, r.visited.tolist()) for r in stranded] == [(0, [])]
        assert batch[2][11] == 1
        assert_same_window(batch, oracle)

    def test_lanes_stranding_mid_walk(self, monkeypatch):
        """Kernel level: on a directed CSR a walker can step onto a node
        with no way out; it must stop charging there, in lockstep and in
        the list recurrence alike."""
        csr = sink_csr()
        draws = np.random.default_rng(0).random(2 * (5 + 3 + 4))
        args = (csr, [3, 0, 4], [5, 3, 4], 2, draws, [0.0, 0.5, 0.9])
        listed = kernels.rw_delivery_batch(*args)
        monkeypatch.setattr(kernels, "LOCKSTEP_MIN_LANES", 1)
        stepped = kernels.rw_delivery_batch(*args)
        for (l_visited, *l_rest), (s_visited, *s_rest) in zip(listed, stepped):
            assert l_visited.tolist() == s_visited.tolist()
            assert l_rest[:2] == s_rest[:2]
            assert l_rest[2].tolist() == s_rest[2].tolist()
        assert [got[1] for got in listed] == [6, 4, 0]
        assert listed[0][0].tolist() == [0, 1, 2]

    def test_single_ad_window(self):
        window = warmup_window(100, 1, 9)
        batch = run_window(varied_overlay("random", 100, 9), window, 9, True)
        oracle = run_window(varied_overlay("random", 100, 9), window, 9, False)
        assert_same_window(batch, oracle)

    def test_unplanned_deliveries_stay_per_event(self):
        """Deliveries off the schedule -- a second ad of a scheduled
        source, before, between and after the window -- each walk with
        their own ordinal; walks computed for the schedule are not handed
        to them."""
        window = warmup_window(120, 12, 10, refresh_every=2)
        extra = make_ad(source=window[0][2].source)

        def run(batched):
            ov = varied_overlay("random", 120, 10)
            fw = RandomWalkAdForwarder(ov, BandwidthLedger(), 3, budget_unit=40)
            if batched:
                fw.schedule = window_schedule(window, fw)
            step = fw.deliver if batched else lambda *a, **k: deliver_reference(fw, *a, **k)
            reports = [step(extra, -1.0, budget=30)]
            for t, _, ad, b in sorted(window, key=lambda e: e[:2]):
                reports.append(step(ad, t, budget=window_budget(fw, ad, b)))
                reports.append(step(extra, t, budget=30))
            reports.append(step(extra, 99.0))
            return reports, ledger_state(fw.ledger), fw.sent

        assert_same_window(run(True), run(False))


class TestLockstepBatchProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(8, 90),
        chunk_bytes=st.integers(1, 60_000),
        block=st.integers(1, 400),
        min_lanes=st.integers(1, 40),
        budget_unit=st.integers(1, 60),
        refresh_every=st.integers(0, 3),
        offline=st.floats(0.0, 0.5),
    )
    def test_batch_matches_loop_oracle(
        self, seed, n, chunk_bytes, block, min_lanes, budget_unit, refresh_every, offline
    ):
        """Random windows of full and refresh ads on overlays with a
        churned live mask: strands, isolated and offline sources, lanes
        handed from lockstep to the list recurrence at any count."""
        window = warmup_window(n, max(1, n // 3), seed, refresh_every=refresh_every)

        def overlay():
            ov = varied_overlay("random", n, seed)
            gone = np.random.default_rng(seed).random(n) < offline
            for v in np.flatnonzero(gone).tolist():
                ov.leave(v)
            return ov

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "LOCKSTEP_CHUNK_BYTES", chunk_bytes)
            patch.setattr(kernels, "LOCKSTEP_BLOCK", block)
            patch.setattr(kernels, "LOCKSTEP_MIN_LANES", min_lanes)
            batch = run_window(overlay(), window, seed, True, budget_unit=budget_unit)
        oracle = run_window(overlay(), window, seed, False, budget_unit=budget_unit)
        assert_same_window(batch, oracle)


class TestKeyedDraws:
    def test_a_pure_function_of_key_source_ordinal_and_shape(self):
        draws = walk_draws(7, 3, 2, 5, 12)
        assert draws.shape == (5, 12)
        assert ((draws >= 0.0) & (draws < 1.0)).all()
        walk_draws(8, 1, 0, 5, 600)  # anything drawn in between changes nothing
        assert walk_draws(7, 3, 2, 5, 12).tobytes() == draws.tobytes()
        # The rows are the raw stream in order, whatever the shape.
        assert walk_draws(7, 3, 2, 3, 20).reshape(-1)[:60].tolist() == draws.reshape(-1).tolist()
        for other in ((8, 3, 2), (7, 4, 2), (7, 3, 3)):
            assert not np.array_equal(walk_draws(*other, 5, 12), draws)

    def test_raw_philox_output_as_53_bit_floats(self):
        raw = np.random.Philox(
            key=np.array([7, 0], dtype=np.uint64),
            counter=np.array([0, 0, 2, 3], dtype=np.uint64),
        ).random_raw(6)
        assert walk_draws(7, 3, 2, 2, 3).reshape(-1).tolist() == [
            int(r) / 2**53 for r in (raw >> np.uint64(11)).tolist()
        ]

    def test_the_key_is_derived_not_drawn(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        key = walk_key(rng.bit_generator.seed_seq)
        assert rng.bit_generator.state == state
        assert key == walk_key(np.random.default_rng(5).bit_generator.seed_seq)
        assert key != walk_key(np.random.default_rng(6).bit_generator.seed_seq)
        assert 0 <= key < 2**128


class TestWalkComputedAhead:
    """A walk computed ahead goes only to the delivery it was walked as:
    each case walks the window's first ad (and with it the whole window),
    disturbs the second's delivery, then delivers the rest -- against the
    oracle run through the same steps."""

    WINDOW = warmup_window(120, 10, 4)
    ORDERED = [(t, ad) for t, _, ad, _ in sorted(WINDOW, key=lambda e: e[:2])]

    def both(self, monkeypatch, disturb, plan=()):
        """The batched arm's ``rw_delivery_batch`` sources after the first
        delivery, on an overlay with churn planned at ``plan``; asserts
        both arms agree."""
        arms = []
        for batched in (True, False):
            ov = varied_overlay("random", 120, 4)
            ov.plan_churn(plan)
            fw = RandomWalkAdForwarder(ov, BandwidthLedger(), 4, budget_unit=40)
            if batched:
                fw.schedule = window_schedule(self.WINDOW, fw)
                kernel = _CountedBatches(monkeypatch)
            step = fw.deliver if batched else lambda *a, **k: deliver_reference(fw, *a, **k)
            (t0, first), (t1, second) = self.ORDERED[:2]
            reports = [step(first, t0)]
            if batched:
                until = min(plan, default=float("inf"))
                assert kernel.calls == [[ad.source for t, ad in self.ORDERED if t < until]]
                kernel.calls = []
            reports.append(disturb(ov, step, second, t1))
            reports += [step(ad, t) for t, ad in self.ORDERED[2:]]
            arms.append((reports, ledger_state(fw.ledger), fw.sent))
        assert_same_window(*arms)
        return kernel.calls

    @pytest.mark.parametrize("churn", ["leave", "join"])
    def test_never_after_a_join_or_leave(self, monkeypatch, churn):
        def disturb(ov, step, ad, t):
            sources = {ad.source for _, ad in self.ORDERED}
            other = next(v for v in range(ov.n) if v not in sources)
            ov.leave(other)
            if churn == "join":
                ov.join(other)
            return step(ad, t)

        # The new CSR's first delivery walks again, and so does the rest.
        calls = self.both(monkeypatch, disturb)
        assert sum(calls, []) == [ad.source for _, ad in self.ORDERED[1:]]

    def test_no_further_than_the_next_planned_churn(self, monkeypatch):
        """A batch takes the ads due before the overlay's next planned join
        or leave, which would drop the rest; the first delivery at or past
        it walks the rest."""
        cut = self.ORDERED[4][0]
        assert self.ORDERED[3][0] < cut
        calls = self.both(monkeypatch, lambda ov, step, ad, t: step(ad, t), [cut])
        assert calls == [[ad.source for _, ad in self.ORDERED[4:]]]

    def test_never_with_another_budget(self, monkeypatch):
        calls = self.both(monkeypatch, lambda ov, step, ad, t: step(ad, t, budget=7))
        assert calls == [[self.ORDERED[1][1].source]]

    def test_never_at_another_time(self, monkeypatch):
        calls = self.both(monkeypatch, lambda ov, step, ad, t: step(ad, t + 0.25))
        assert calls == [[self.ORDERED[1][1].source]]

    def test_never_to_a_grown_ad(self, monkeypatch):
        """A content change between the walk and its event: more topics,
        more budget, a walk of its own."""

        def disturb(ov, step, ad, t):
            grown = Ad(
                source=ad.source, ad_type=AdType.FULL, version=2,
                topics=frozenset(range(len(ad.topics) + 1)), n_set_bits=ad.n_set_bits,
            )
            return step(grown, t)

        assert self.both(monkeypatch, disturb) == [[self.ORDERED[1][1].source]]

    def test_a_heavier_ad_takes_the_walk_at_its_own_size(self, monkeypatch):
        """Same budget, bigger ad: the walk computed ahead is the one, and
        it is charged at the ad's own size."""

        def disturb(ov, step, ad, t):
            heavier = Ad(
                source=ad.source, ad_type=AdType.FULL, version=2,
                topics=ad.topics, n_set_bits=ad.n_set_bits + 40,
            )
            return step(heavier, t)

        assert self.both(monkeypatch, disturb) == []


class TestWarmupSchedule:
    """Flat and super-peer ASAP share one warm-up schedule, so both cells'
    full ads are walked ahead in batches, and which companions share a
    batch changes no result."""

    @pytest.mark.parametrize("algorithm", ["asap_rw", "asap_sp_rw"])
    def test_warmup_full_ads_are_walked_in_the_batch(self, monkeypatch, algorithm):
        from repro.simulation.runner import run_experiment
        from tests.test_engine_batching_differential import small_config

        kernel = _CountedBatches(monkeypatch)
        config = small_config(algorithm, 0)
        result = run_experiment(config, profile=True)
        # Full-ad events fire only in warm-up (joins issue theirs inline).
        full_ads = result.profile.subsystems["full-ad"].events
        walked = sum(map(len, kernel.calls))
        assert walked >= full_ads > 100
        # Deliveries that found their walk computed ahead made no call.
        assert len(kernel.calls) < walked / 5

    @pytest.mark.parametrize("algorithm", ["asap_rw", "asap_sp_rw"])
    def test_companions_change_no_result(self, monkeypatch, algorithm):
        """A cell with heavy churn and content change: the same audited run
        fingerprint with the schedule's companions, with none (a batch per
        delivery), with the schedule shuffled and with no churn plan (the
        schedule runs past the next join or leave: more walks, same
        results)."""
        from repro.asap.protocol import AsapSearch
        from repro.network.overlay import Overlay
        from tests.test_engine_batching_differential import small_config
        from tests.test_flood_words import run_fingerprint
        from tests.test_golden_fingerprints import _heavy_churn

        config = _heavy_churn(small_config(algorithm, 1))
        kernel = _CountedBatches(monkeypatch)
        scheduled = run_fingerprint(config)
        assert scheduled is not None
        walked, batches = sum(map(len, kernel.calls)), len(kernel.calls)
        kernel.calls = []
        scheduled_due = AsapSearch._next_due

        def no_companions(self, now, count):
            none = np.empty(0, dtype=np.int64)
            return none, np.empty(0), none

        def shuffled(self, now, count):
            nodes, times, budgets = scheduled_due(self, now, count)
            order = np.random.default_rng(len(nodes)).permutation(len(nodes))
            return nodes[order], times[order], budgets[order]

        monkeypatch.setattr(AsapSearch, "_next_due", no_companions)
        assert run_fingerprint(config) == scheduled
        assert batches < len(kernel.calls) / 2
        monkeypatch.setattr(AsapSearch, "_next_due", shuffled)
        assert run_fingerprint(config) == scheduled
        monkeypatch.setattr(AsapSearch, "_next_due", scheduled_due)
        monkeypatch.setattr(Overlay, "plan_churn", lambda self, times: None)
        kernel.calls = []
        assert run_fingerprint(config) == scheduled
        assert sum(map(len, kernel.calls)) > walked
        assert len(kernel.calls) <= batches

    def test_no_walk_past_the_replay_end(self, monkeypatch):
        """The runner plans the replay's end with its churn: no batch walks
        an ad due after the engine's last event, and the audited run
        fingerprint is still the golden one."""
        from repro.network.substrate import get_workload
        from tests.test_engine_batching_differential import (
            run_fingerprint, small_config,
        )
        from tests.test_golden_fingerprints import _golden

        config = small_config("asap_rw", 0)
        starts = []
        real = kernels.rw_delivery_batch

        def spy(csr, sources, per_walker, walkers, draws, nows):
            starts.extend(nows)
            return real(csr, sources, per_walker, walkers, draws, nows)

        monkeypatch.setattr(kernels, "rw_delivery_batch", spy)
        fingerprint = run_fingerprint(config)
        _, trace = get_workload(config.edonkey, config.trace, config.seed)
        assert starts and max(starts) <= config.warmup_s + trace.duration + 1.0
        golden = _golden()["table_fingerprints"]["asap_rw/seed0/default_churn"]
        assert fingerprint == golden

    def test_the_schedule_names_real_ads(self):
        """``_next_due`` lists only live sharers -- a free rider's refresh
        tick sends nothing -- in due order, each with the budget its ad
        will walk with: the default for a warm-up full ad, a tenth of it
        for a refresh."""
        from repro.asap.protocol import AsapParams, AsapSearch
        from repro.sim.engine import SimulationEngine

        ov = make_overlay(0, n=40)
        content = ContentIndex()
        for doc_id in range(20):
            content.register_document(
                Document(doc_id=doc_id, class_id=doc_id % 4, keywords=(f"kw{doc_id}",))
            )
            content.place(doc_id % 10, doc_id)  # nodes 0-9 share, 10-39 ride free
        algo = AsapSearch(
            ov, content, BandwidthLedger(), rng=np.random.default_rng(0),
            interests=[{0, 1, 2, 3}] * 40,
            params=AsapParams(forwarder="rw", budget_unit=20),
        )
        ov.leave(3)
        algo.warmup(SimulationEngine(), start=0.0, duration=100.0)
        fw, store = algo.forwarder, algo.store
        for now, refresh in ((0.0, False), (100.0, True)):
            nodes, times, budgets = algo._next_due(now, 40)
            assert sorted(nodes.tolist()) == [v for v in range(10) if v != 3]
            if refresh:  # a sharer that joins after warm-up is due too
                ov.join(3)
                algo.on_join(3, now)
                nodes, times, budgets = algo._next_due(now, 40)
                assert sorted(nodes.tolist()) == list(range(10))
            assert (np.diff(times) >= 0).all() and (times >= now).all()
            for node, budget in zip(nodes.tolist(), budgets.tolist()):
                full = fw.default_budget(store.make_full_ad(node))
                assert budget == (int(refresh_budget(full)) if refresh else full)
        assert len(algo._next_due(100.0, 4)[0]) == 4

    def test_churn_and_draws_mid_window_run(self):
        """A hand-driven warm-up that takes a node down, changes content and
        draws from the algorithm stream mid-window runs on, with the same
        results as with no companions walked ahead."""
        from repro.asap.protocol import AsapParams, AsapSearch
        from repro.sim.engine import SimulationEngine

        def run(companions):
            ov = make_overlay(0, n=60)
            content = ContentIndex()
            for doc_id in range(31):
                content.register_document(
                    Document(doc_id=doc_id, class_id=doc_id % 3, keywords=(f"kw{doc_id}",))
                )
            for doc_id in range(30):
                content.place(doc_id, doc_id)
            ledger = BandwidthLedger()
            algo = AsapSearch(
                ov, content, ledger, rng=np.random.default_rng(0),
                interests=[{0, 1, 2}] * 60,
                params=AsapParams(forwarder="rw", budget_unit=20),
            )
            if not companions:
                algo.forwarder.schedule = lambda now, count: (
                    np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64)
                )
            engine = SimulationEngine()
            algo.warmup(engine, start=0.0, duration=100.0)

            def change():
                content.place(4, 30)
                algo.on_content_change(4, content.document(30), True, engine.now)

            engine.schedule_at(20.0, lambda: ov.leave(59), name="trace")
            engine.schedule_at(25.0, change, name="trace")
            engine.schedule_at(30.0, lambda: algo.rng.random(3), name="trace")
            engine.schedule_at(35.0, lambda: ov.join(59), name="trace")
            engine.run(until=100.0)
            return ledger_state(ledger), algo.state.entry.tolist()

        assert run(True) == run(False)


# -------------------------------------------------------------------- search
def build_search(ov, holders, seed, cls=RandomWalkSearch, **kwargs):
    content = ContentIndex()
    content.register_document(Document(doc_id=1, class_id=0, keywords=("rock",)))
    for h in holders:
        content.place(h, 1)
    return cls(ov, content, BandwidthLedger(), rng=np.random.default_rng(seed), **kwargs)


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
        reply_seconds = np.flatnonzero(
            algo.ledger.per_second()[TrafficCategory.QUERY_RESPONSE]
        ).tolist()
        assert reply_seconds == [int(now + out.response_time_ms / 1000.0)]


class FixedDraws:
    """An RNG whose ``random((walkers, ttl))`` returns the given uniforms."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, shape):
        assert shape == self.draws.shape
        return self.draws.copy()


def branches(*specs):
    """Directed rows: requester 0 has one out-edge per ``(length, end,
    lat)`` spec, into a path of ``length`` nodes at ``lat`` ms a hop that
    ends in a sink (``end == "sink"``: a walker strands there) or in a
    two-node cycle it walks for ever.  Returns ``(rows, paths)``, a row
    being ``[(head, lat)]``."""
    rows, paths = [[]], []
    for length, end, lat in specs:
        path = list(range(len(rows), len(rows) + length))
        rows += [[] for _ in path]
        for tail, head in zip([0] + path, path):
            rows[tail].append((head, lat))
        if end == "loop":
            rows[path[-1]].append((len(rows), lat))
            rows.append([(path[-1], lat)])
        paths.append(path)
    return rows, paths


class TestRandomWalkSearchStrandsAndTies:
    """``_search_impl`` against ``_search_loop`` where the random-overlay
    cases never go: walkers that strand (a directed CSR with sinks) while
    others walk on, and exact ties among the earliest arrivals.  The first
    uniform of each walker picks its branch; on one-way paths the rest
    cannot change the walk."""

    def run_both(self, monkeypatch, rows, picks, match, ttl=128):
        csr = rows_csr(rows)
        assert csr.lats_positive
        draws = np.random.default_rng(len(picks)).random((len(picks), ttl))
        draws[:, 0] = (np.array(picks) + 0.5) / len(rows[0])
        finished = []
        finish = random_walk.finish_walk

        def spy(search, requester, now, first, counts, hit_time, hit_node):
            buckets = bytes_by_second(first, counts, QUERY_BYTES)
            finished.append((counts.sum(), buckets, hit_time, hit_node))
            return finish(search, requester, now, first, counts, hit_time, hit_node)

        monkeypatch.setattr(random_walk, "finish_walk", spy)
        results = []
        for path in ("_search_impl", "_search_loop"):
            algo = build_search(hand_overlay(csr), match, 0, walkers=len(picks), ttl=ttl)
            algo.rng = FixedDraws(draws)
            out = getattr(algo, path)(0, ["rock"], 100.0)
            results.append((outcome_tuple(out), ledger_state(algo.ledger)))
        assert results[0] == results[1]
        assert finished[0] == finished[1]
        return finished[0]

    @pytest.mark.parametrize("sink_depth", [3, 20])
    def test_strands_mid_round_then_a_hit(self, monkeypatch, sink_depth):
        rows, paths = branches(
            (sink_depth, "sink", 10.0), (40, "loop", 10.0), (7, "loop", 10.0)
        )
        hit = paths[1][29]  # step 30: mid round two, after every strand
        n_messages, _, hit_time, hit_node = self.run_both(
            monkeypatch, rows, [0, 1, 2, 0, 2], [hit]
        )
        assert (hit_time, hit_node) == (300.0, hit)
        # Each stranded walker pays its path; the others stop at the hit.
        assert n_messages == 2 * sink_depth + 3 * 30

    def test_miss_while_some_strand(self, monkeypatch):
        rows, _ = branches((5, "sink", 10.0), (3, "loop", 7.5))
        n_messages, _, hit_time, _ = self.run_both(
            monkeypatch, rows, [0, 1, 0, 1, 1], [], ttl=100
        )
        assert (n_messages, hit_time) == (2 * 5 + 3 * 100, None)

    def test_miss_where_every_walker_strands(self, monkeypatch):
        rows, _ = branches((3, "sink", 10.0), (20, "sink", 11.0), (50, "sink", 9.0))
        n_messages, buckets, hit_time, _ = self.run_both(
            monkeypatch, rows, [0, 1, 2, 1, 0], []
        )
        assert (n_messages, hit_time) == (3 + 20 + 50 + 20 + 3, None)
        assert sum(buckets.values()) == n_messages * QUERY_BYTES

    def test_tie_goes_to_the_lower_walker(self, monkeypatch):
        """Flat latencies: walkers 0 and 1 reach a match at the same step
        from the same start time; walker 0's node wins though its id is
        the larger."""
        rows, paths = branches(*[(5, "loop", 10.0)] * 3)
        _, _, hit_time, hit_node = self.run_both(
            monkeypatch, rows, [2, 0, 1], [paths[0][2], paths[2][2]]
        )
        assert (hit_time, hit_node) == (30.0, paths[2][2])

    def test_tie_goes_to_the_earlier_start(self, monkeypatch):
        """Two matches arrive at 30 ms, one on a 30 ms hop from time 0, one
        on a 15 ms hop from 15 ms: the earlier start wins whatever the
        walker order."""
        rows, paths = branches((1, "loop", 30.0), (2, "loop", 15.0))
        _, _, hit_time, hit_node = self.run_both(
            monkeypatch, rows, [1, 0], [paths[0][0], paths[1][1]]
        )
        assert (hit_time, hit_node) == (30.0, paths[0][0])


class TestGsaSearchDifferential:
    """``GsaSearch._search_impl`` (heap loop over the carried rows) against
    ``gsa_search_reference`` (the same loop over flat CSR lists)."""

    def run_both(
        self, monkeypatch, make_overlay_, holders, draws=None, seed=0, **kwargs
    ):
        """One query from node 0 per arm; asserts outcome, ledger, RNG
        state and the walk's ``(messages, hit_time, hit_node)`` agree and
        returns the latter."""
        finished = []
        finish = random_walk.finish_walk

        def spy(search, requester, now, first, counts, hit_time, hit_node):
            finished.append((counts.sum(), hit_time, hit_node))
            return finish(search, requester, now, first, counts, hit_time, hit_node)

        monkeypatch.setattr(gsa, "finish_walk", spy)
        monkeypatch.setattr(gsa_oracle, "finish_walk", spy)
        arms = []
        for search in (GsaSearch._search_impl, gsa_search_reference):
            algo = build_search(make_overlay_(), holders, seed, cls=GsaSearch, **kwargs)
            if draws is not None:
                algo.rng = FixedDraws(draws)
            out = search(algo, 0, ["rock"], 100.0)
            state = getattr(algo.rng, "bit_generator", None)
            arms.append((outcome_tuple(out), ledger_state(algo.ledger), state and state.state))
        assert arms[0] == arms[1]
        assert finished[0] == finished[1]
        return finished[0]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "holders", [(7, 60, 123, 180, 240, 291), ()], ids=["hit", "miss"]
    )
    @pytest.mark.parametrize("kind", sorted(TOPOLOGIES))
    def test_varied_overlays(self, monkeypatch, kind, holders, seed):
        n_messages, hit_time, _ = self.run_both(
            monkeypatch, lambda: varied_overlay(kind, 300, seed), holders,
            seed=seed, budget=400,
        )
        assert n_messages <= 400
        assert (hit_time < np.inf) == bool(holders)

    def test_searches_and_deliveries_under_churn(self):
        """Searches and GSA deliveries on one overlay, interleaved with
        leaves and rejoins: every epoch's rows are carried, not rebuilt."""
        order = np.random.default_rng(41).permutation(np.arange(10, 300))[:16].tolist()

        def run(rows):
            ov = varied_overlay("powerlaw", 300, 3)
            algo = build_search(ov, (20, 150, 260), 3, cls=GsaSearch, budget=300)
            fw = GsaAdForwarder(ov, algo.ledger, 9)
            search = algo._search_impl if rows else lambda *a: gsa_search_reference(algo, *a)
            seen = []
            for i, node in enumerate(order):
                report = deliver(fw, "deliver" if rows else "reference", make_ad(), 10.0 * i, 200)
                seen.append((report.visited.tolist(), report.messages))
                seen.append(outcome_tuple(search(0, ["rock"], 10.0 * i + 5.0)))
                ov.leave(node)
                if i % 2:
                    ov.join(order[i - 1])
            states = (algo.rng.bit_generator.state, fw.sent)
            return seen, ledger_state(algo.ledger), states

        assert run(True) == run(False)

    def test_budget_runs_out_inside_a_probe_row(self, monkeypatch):
        """Per-walker budget 3 on a hub of six: walker 0 probes two of the
        row, walker 1 the next two -- where the match is."""
        rows = [[(1, 5.0)], [(v, 8.0) for v in range(2, 8)]] + [[]] * 6
        csr = rows_csr(rows)
        n_messages, hit_time, hit_node = self.run_both(
            monkeypatch, lambda: hand_overlay(csr), (4,), budget=6, walkers=2
        )
        assert (n_messages, hit_time, hit_node) == (6, 5.0 + 2 * 8.0, 4)

    def test_probe_hit_beats_a_later_visit(self, monkeypatch):
        """At 10 ms the walk reaches 1 and its probe finds match 3 at 12 ms;
        both walkers then step onto match 2 at 110 ms, too late to win."""
        rows = [[(1, 10.0)], [(2, 100.0), (3, 1.0)], [(1, 100.0)], [(1, 1.0)]]
        csr = rows_csr(rows)
        draws = np.full((2, 10), 0.25)
        n_messages, hit_time, hit_node = self.run_both(
            monkeypatch, lambda: hand_overlay(csr), (2, 3), draws, budget=20, walkers=2
        )
        assert (hit_time, hit_node) == (12.0, 3)
        assert n_messages == 2 + 2 + 2  # two steps each, two probes by walker 0

    @pytest.mark.parametrize("budget,hit_time", [(40, 30.0), (8, 40.0)])
    def test_exact_arrival_ties(self, monkeypatch, budget, hit_time):
        """Flat 10 ms hops on two branches: the walkers' probe hits tie at
        40 ms and their visits at 30 ms; walker 0 wins both ties.  With 4
        budget units a walker ends on its probe, so the probe tie stands."""
        rows, paths = branches((5, "loop", 10.0), (5, "loop", 10.0))
        csr = rows_csr(rows)
        draws = np.random.default_rng(2).random((2, budget // 2))
        draws[:, 0] = (np.array([1, 0]) + 0.5) / 2
        _, got_time, hit_node = self.run_both(
            monkeypatch, lambda: hand_overlay(csr), (paths[0][2], paths[1][2]),
            draws, budget=budget, walkers=2,
        )
        assert (got_time, hit_node) == (hit_time, paths[1][2])

    @pytest.mark.parametrize("holders", [(2,), ()], ids=["hit", "miss"])
    def test_walker_strands_on_the_sink(self, monkeypatch, holders):
        """Directed 3 -> 0 -> 1 -> 2 (sink); the requester is 0 here, so
        every walker strands on 2 after two steps."""
        n_messages, hit_time, hit_node = self.run_both(
            monkeypatch, lambda: hand_overlay(sink_csr()), holders, budget=50
        )
        # Walker 0: two steps and one probe; four more walkers: two steps.
        assert n_messages == 3 + 4 * 2
        assert (hit_time, hit_node) == ((1100.0, 2) if holders else (np.inf, None))


# -------------------------------------------------------- draw-sizing audit
class TestGsaDrawSizing:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_never_outrun(self, seed):
        """A GSA walker takes at most per_walker steps (each step costs at
        least one budget unit), so the (walkers, per_walker) draw matrix is
        always long enough: the delivery completes without the historical
        modulo wrap and stays bit-identical to the reference."""
        ov = make_overlay(seed)
        fw = GsaAdForwarder(ov, BandwidthLedger(), seed)
        # Tiny budget: per_walker == 1, the regime where a wrap would have
        # mattered if a walker could ever take a second step.
        report = fw.deliver(make_ad(), now=0.0, budget=5)
        assert report.messages <= 5
        ref = deliver_reference(
            GsaAdForwarder(make_overlay(seed), BandwidthLedger(), seed),
            make_ad(),
            now=0.0,
            budget=5,
        )
        assert report.visited.tolist() == ref.visited.tolist()
        assert report.messages == ref.messages
