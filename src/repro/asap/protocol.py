"""The ASAP search algorithm and node lifecycle (paper Section III-C).

Search (Table I, transcribed):

1. look up the local ads repository for ads whose content filter matches
   *all* query terms;
2. send a content confirmation to each matching ad's source (nearest-first,
   capped); a confirmation succeeds when the source is online and actually
   holds one document containing every term -- Bloom false positives,
   cross-document term splits and departed sources all fail here;
3. if no response was obtained (or more responses are needed), send an
   ads request to all neighbours within ``h`` hops (default 1); neighbours
   reply with cached ads that overlap the requester's interests and that
   the requester does not already hold (the request carries a digest of
   cached sources -- see DESIGN.md section 3 on this documented refinement);
   merge, re-look-up, confirm again;
4. succeed with the earliest confirmed positive; fail otherwise.

Lifecycle:

* **warm-up** -- every sharer disseminates its full ad at a jittered time
  inside the warm-up window, then starts a jittered periodic refresh timer;
* **content change** -- the source's filter column is brought in line with
  the content index (changed first); if the bitmap changed, a patch ad is
  disseminated; cachers the delivery missed are marked *behind* (their
  entries are evaluated at their recorded version);
* **join** -- the node disseminates a full ad (sharers) and bootstraps its
  cache with an ads request to its neighbours;
* **leave** -- nothing is sent; the node's cached ads survive for a rejoin
  and its own ads decay in others' caches via failed confirmations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.asap.delivery import AdForwarder, Schedule, make_forwarder, walk_key
from repro.asap.state import AdsState
from repro.asap.store import SourceFilterStore
from repro.workload.interests import InterestState, topic_bits
from repro.search.base import (
    AD_HEADER_BYTES,
    ADS_REQUEST_BYTES,
    CONFIRMATION_REPLY_BYTES,
    CONFIRMATION_REQUEST_BYTES,
    SearchAlgorithm,
    SearchOutcome,
)
from repro.sim.engine import Event, SimulationEngine
from repro.sim.metrics import ASAP_LOAD_CATEGORIES, TrafficCategory

__all__ = ["AsapParams", "AsapSearch"]


#: The paper's fixed protocol constants (Section IV-A).
AD_TTL = 6  # ad flooding TTL (ASAP(FLD))
AD_WALKERS = 5  # walkers per ad delivery (RW/GSA)
# Refresh ads only need to re-reach nodes that already cache the source
# (any interested node acquired the ad during dissemination/bootstrap),
# so they walk with a small fraction of the full delivery budget.
REFRESH_BUDGET_FRACTION = 0.1
MAX_CONFIRMATIONS = 8  # nearest ads confirmed per round
# Fraction of join events treated as genuinely new peers (never seen
# before): they must advertise with a full ad, while ordinary rejoins only
# re-announce liveness with a refresh ad.  This is the steady trickle of
# full-ad traffic in the warmed-up system (Figure 7).
FRESH_JOIN_FRACTION = 0.03
MORE_RESULTS_THRESHOLD = 1  # ads request when fewer results confirmed


@dataclass(frozen=True)
class AsapParams:
    """The ASAP knobs the ablations sweep.  Defaults are the paper's (Section IV-A)."""

    forwarder: str = "rw"  # fld | rw | gsa
    budget_unit: int = 3000  # M0: per-topic delivery budget
    ads_request_hops: int = 1  # h: ads-request radius
    refresh_period_s: float = 600.0  # periodic refresh-ad interval
    cache_capacity: Optional[int] = None  # ads-cache bound (None = unbounded)

    def __post_init__(self) -> None:
        if self.forwarder not in ("fld", "rw", "gsa"):
            raise ValueError(f"unknown forwarder {self.forwarder!r}")
        # The forwarders reject it too -- after the substrate, overlay,
        # content and trace have been built, and ASAP(FLD) never reads it.
        if self.budget_unit < 1:
            raise ValueError("budget_unit must be >= 1")
        if self.ads_request_hops < 0:
            raise ValueError("ads_request_hops must be >= 0")
        if self.refresh_period_s <= 0:
            raise ValueError("refresh_period_s must be positive")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1 (or None for unbounded)")


def refresh_budget(full_budget):
    """The message budget a refresh ad walks with: ``REFRESH_BUDGET_FRACTION``
    of its source's full-ad budget, at least one (an int or an array)."""
    return np.maximum(1, np.multiply(full_budget, REFRESH_BUDGET_FRACTION).astype(np.int64))


_SCHEME_NAMES = {"fld": "ASAP(FLD)", "rw": "ASAP(RW)", "gsa": "ASAP(GSA)"}

#: Bytes per cached source in the digest an ads request carries.
DIGEST_BYTES_PER_ENTRY = 0.25

#: What answers a repair pull, indexed by "the missed patches are no larger".
_REPLY_CATEGORY = np.array(
    [TrafficCategory.FULL_AD, TrafficCategory.PATCH_AD], dtype=object
)


class AsapSearch(SearchAlgorithm):
    """The advertisement-based search algorithm."""

    load_categories = ASAP_LOAD_CATEGORIES

    def __init__(
        self,
        overlay,
        content,
        ledger,
        rng: Optional[np.random.Generator] = None,
        interests: Optional[List[Set[int]]] = None,
        params: AsapParams | None = None,
        free_riders: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(overlay, content, ledger, rng)
        if interests is None:
            raise ValueError("ASAP requires per-node interests")
        if len(interests) != overlay.n:
            raise ValueError("interests length must equal overlay size")
        self.params = params or AsapParams()
        self.name = _SCHEME_NAMES[self.params.forwarder]
        self.interests = InterestState(interests)
        self.store = SourceFilterStore(overlay.n, content)
        # The one container of per-(peer, source) cache state: a node's
        # repository is its row.
        self.state = AdsState(
            overlay.n,
            self.interests.bitmasks,
            self.store,
            capacity=self.params.cache_capacity,
        )
        # Ad walks draw keyed uniforms (repro.asap.delivery.walk_draws),
        # never from the shared stream: DESIGN.md section 6.
        self.forwarder: AdForwarder = make_forwarder(
            self.params.forwarder,
            overlay,
            ledger,
            walk_key(self.rng.bit_generator.seed_seq),
            ttl=AD_TTL,
            walkers=AD_WALKERS,
            budget_unit=self.params.budget_unit,
        )
        self._engine: Optional[SimulationEngine] = None
        # Per node, its pending refresh tick: one engine event at _due[1, node].
        self._timers: Dict[int, Event] = {}
        # Per node, has it ever sent a full ad?
        self._advertised = np.zeros(overlay.n, dtype=bool)
        # The workload's free riders (ContentDistribution.free_rider): they
        # never share a document, so their refresh ticks would send nothing.
        self._free_riders = (
            np.zeros(overlay.n, dtype=bool) if free_riders is None else free_riders
        )
        # The schedule the forwarder may compute ahead from: per node, the
        # time of its warm-up full ad (row 0) and of its next refresh tick
        # (row 1); inf where none is scheduled.
        self._due = np.full((2, overlay.n), math.inf)
        self.forwarder.schedule = self._next_due

    @property
    def arena(self) -> AdsState:
        """Not an option: the name ``benchmarks/e2e/traced.py`` reads
        ``stats()`` through.  Use :attr:`state`."""
        return self.state

    def attach(self, obs) -> None:
        """Report the protocol's and its ad forwarder's actions to ``obs``."""
        super().attach(obs)
        self.forwarder.obs = obs

    # ------------------------------------------------------------- delivery
    def _disseminate(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> None:
        """Deliver an ad and update every receiver's cache."""
        report = self.forwarder.deliver(ad, now, budget=budget)
        self._merge_ad(ad, now, report.visited)

    def _merge_ad(self, ad: Ad, now: float, receivers: np.ndarray) -> None:
        """Merge a delivered ad into the caches of ``receivers`` (ascending
        ids).

        The version merge itself is one masked write per ad type
        (:meth:`AdsState.accept`).  Receivers left with a version gap (a
        patch or refresh whose version outruns their cached copy) then
        repair by pulling the missed patches from the source -- the unicast
        anti-entropy that keeps caches exact and contributes the steady
        trickle of full-ad bytes in Figure 7's breakdown.  The pulls are
        booked, and an observed run is told about them, in ascending
        receiver order.
        """
        src = ad.source
        state = self.state
        state.accept(ad, now, receivers)
        if self.overlay.is_live(src):
            lagging = receivers[state.behind_mask(receivers, src)]
            if len(lagging):
                self._repair(src, now, lagging)
        if ad.ad_type is AdType.PATCH:
            state.mark_missed(src, receivers)

    def _repair(self, source: int, now: float, lagging: np.ndarray) -> None:
        """Heal the version gaps of ``lagging``, the receivers of one
        delivery that hold ``source`` behind, in one step.

        Each pulls from the source the changed-bit lists of every patch its
        cache missed (2 bytes per bit, as on any patch ad); a cache so far
        behind that a fresh full ad is smaller is sent that instead.
        Either way the entry ends at the current version.
        """
        ledger, state = self.ledger, self.state
        k = len(lagging)
        # Every request leaves now, so they are booked at once.
        ledger.record(now, TrafficCategory.ADS_REQUEST, k * ADS_REQUEST_BYTES, messages=k)
        reply, categories = np.zeros(k), np.full(k, None)
        full = self.store.make_full_ad(source)
        if full is None:
            # Source shares nothing any more: the stale entries are worthless.
            for node in lagging.tolist():
                state.remove(node, source)
        else:
            patch_reply = AD_HEADER_BYTES + 2 * self.store.missed_patch_bits(
                source, state.versions(lagging, source)
            )
            full_reply = full.size_bytes()
            as_patch = patch_reply <= full_reply
            reply = np.where(as_patch, patch_reply, full_reply)
            categories = _REPLY_CATEGORY[as_patch.astype(np.intp)]
            # (receiver, source): the float sum a scalar pull would make.
            lats = self.overlay.direct_latencies_ms(lagging, source)
            arrival = now + 2.0 * lats / 1000.0
            # One reply is one scalar record, several one record_each (a
            # call of which costs ten records); none books nothing.
            for chose_patch, category in enumerate(_REPLY_CATEGORY):
                sent = np.flatnonzero(as_patch == chose_patch)
                if len(sent) == 1:
                    ledger.record(float(arrival[sent[0]]), category, float(reply[sent[0]]))
                elif len(sent):
                    ledger.record_each(arrival[sent], category, reply[sent])
            state.accept_repair(
                lagging, source, full.version, topic_bits(full.topics), now
            )
        if self.obs is not None:
            self.obs.repairs(
                now, lagging, source, float(ADS_REQUEST_BYTES), reply, categories
            )

    def _issue_full_ad(self, source: int, now: float) -> None:
        ad = self.store.make_full_ad(source)
        if ad is not None:
            self._advertised[source] = True
            self._disseminate(ad, now)

    def _issue_refresh_ad(self, source: int, now: float) -> None:
        ad = self.store.make_refresh_ad(source)
        if ad is None:
            return
        budget = None
        if self.params.forwarder in ("rw", "gsa"):
            budget = int(refresh_budget(self.forwarder.default_budget(ad)))
        self._disseminate(ad, now, budget=budget)

    # --------------------------------------------------------------- warmup
    def warmup(self, engine: SimulationEngine, start: float, duration: float) -> None:
        """Schedule initial full-ad dissemination and refresh timers.

        Full ads go out at jittered times in the first 60% of the window so
        even the slowest walk delivery completes before measurement starts.
        Every node then performs the "brand new node" ads request (Section
        III-C) late in the window, merging its neighbours' caches -- this is
        the gossip step that makes local lookups hit at query time.
        """
        self._schedule_warmup(engine, start, duration, refreshes=lambda node: True)

    def _bootstraps(self, node: int) -> bool:
        """Does ``node`` fill its cache with an ads request, at warm-up and
        on every join?"""
        return True

    def _schedule_warmup(
        self,
        engine: SimulationEngine,
        start: float,
        duration: float,
        refreshes: Callable[[int], bool],
    ) -> None:
        """The one warm-up schedule: per live node, ascending, a full ad
        (sharers), a bootstrap ads request (if ``_bootstraps(node)``) and a
        refresh timer (if ``refreshes(node)``), each drawing its jitter
        from the algorithm stream in that order."""
        self._engine = engine
        rng = self.rng
        for node in self.overlay.live_nodes().tolist():
            if self.store.is_sharer(node):
                at = start + float(rng.random()) * max(0.6 * duration, 1e-9)
                event = engine.schedule_at(
                    at,
                    lambda n=node: self._issue_full_ad(n, self._engine.now),
                    name=f"full-ad-{node}",
                )
                self._due[0, node] = event.time
            if self._bootstraps(node):
                at = start + (0.7 + 0.25 * float(rng.random())) * max(duration, 1e-9)
                engine.schedule_at(
                    at,
                    lambda n=node: self._ads_request(n, self._engine.now),
                    name=f"bootstrap-{node}",
                )
            if refreshes(node):
                self._start_refresh_timer(node, phase_base=start + duration)

    def _start_refresh_timer(self, node: int, phase_base: float) -> None:
        if self._engine is None or node in self._timers:
            return
        period = self.params.refresh_period_s
        # Jittered phase so refreshes spread across the period.
        phase = max(
            phase_base - self._engine.now + float(self.rng.random()) * period,
            1e-9,
        )
        if self._free_riders[node]:
            return  # the jitter is drawn all the same: one draw per node
        at = self._due[1, node] = self._engine.now + phase
        self._schedule_refresh(node, at)

    def _schedule_refresh(self, node: int, at: float) -> None:
        """Schedule ``node``'s next refresh tick, one engine event at
        ``at`` (the time ``_due[1, node]`` holds)."""
        self._timers[node] = self._engine.schedule_at(
            at, lambda: self._refresh_tick(node), name=f"refresh-{node}"
        )

    def _refresh_tick(self, node: int) -> None:
        now = self._engine.now
        at = self._due[1, node] = now + self.params.refresh_period_s
        if self.overlay.is_live(node):
            self._issue_refresh_ad(node, now)
        self._schedule_refresh(node, at)

    def _next_due(self, now: float, count: int) -> Schedule:
        """Up to ``count`` live sharers next due to send an ad on schedule
        -- a warm-up full ad or a refresh tick at or after ``now`` -- in
        schedule order (time, then id), with the time each is due and the
        budget its ad will walk with (the forwarder's for a full ad,
        :func:`refresh_budget` of it for a refresh)."""
        full, refresh = self._due
        full = np.where(full >= now, full, math.inf)  # warm-up ads still ahead
        is_full = full < refresh
        due = np.minimum(full, refresh)
        idle = ~self.overlay.live_mask | ~self.store.is_sharer(slice(None))
        due[(due < now) | idle] = math.inf
        if count < len(due):
            nodes = np.argpartition(due, count - 1)[:count]
        else:
            nodes = np.arange(len(due))
        nodes = np.sort(nodes[due[nodes] < math.inf])
        nodes = nodes[np.argsort(due[nodes], kind="stable")]
        budgets = self.forwarder.topic_budget(self.store.topic_counts(nodes))
        budgets = np.where(is_full[nodes], budgets, refresh_budget(budgets))
        return nodes, due[nodes], budgets

    # ---------------------------------------------------------------- churn
    def on_join(self, node: int, now: float) -> None:
        # A rejoining node's content did not change while it was offline
        # (observation 3, Section III-A), so peers that cached its ad still
        # hold a valid copy: a refresh ad (header-only) re-announces
        # liveness at a fraction of a full ad's cost.  Never-advertised
        # sharers -- and the occasional genuinely new peer -- pay for a
        # full ad.
        fresh = (
            not self._advertised[node]
            or float(self.rng.random()) < FRESH_JOIN_FRACTION
        )
        if fresh:
            self._issue_full_ad(node, now)
        else:
            self._issue_refresh_ad(node, now)
        if self._bootstraps(node):
            self._ads_request(node, now)
        if self._engine is not None and node not in self._timers:
            self._start_refresh_timer(node, phase_base=now)

    def on_leave(self, node: int, now: float) -> None:
        timer = self._timers.pop(node, None)
        if timer is not None:
            timer.cancel()
            self._due[1, node] = math.inf
        # The node's repo is retained for a possible rejoin (paper: "if a
        # node stays offline for a long time and then rejoins, the ads in
        # its cache could be mostly out of date" -- the ads request on
        # rejoin compensates).

    def on_content_change(self, node: int, doc, added: bool, now: float) -> None:
        ad = self.store.apply_content_change(node, doc, added)
        if ad is not None and self.overlay.is_live(node):
            self._disseminate(ad, now)

    # ------------------------------------------------------------ ads request
    def _neighbors_within_h(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Live nodes within ``h`` overlay hops, ascending, with the one-way
        latency to each: hop by hop, the least of the previous hop's
        latencies plus the edge -- the fastest path among those of fewest
        hops.  Hop 1 is ``node``'s row; every further hop is one gather of
        the rows of the whole hop before it."""
        hops = self.params.ads_request_hops
        if hops == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        layer, latency = self.overlay.live_neighbors(node)
        nodes, lats = [layer], [latency]
        if hops > 1:
            # Through the class, as ``Overlay.live_neighbors`` reads it: a
            # harness timing the instance's ``walk_csr`` counts the kernels'
            # reads, not this one.
            csr = type(self.overlay).walk_csr(self.overlay)
            seen = np.zeros(self.overlay.n, dtype=bool)
            seen[node] = True
            seen[layer] = True
        for _ in range(hops - 1):
            if not len(layer):
                break
            lo, lens = csr.indptr[layer], csr.deg[layer]
            ends = np.cumsum(lens)
            edges = np.arange(ends[-1]) + np.repeat(lo - ends + lens, lens)
            reached = csr.indices[edges]
            sums = np.repeat(latency, lens) + csr.lats[edges]
            new = ~seen[reached]
            # A node two predecessors reach keeps its least sum.
            order = np.argsort(sums[new], kind="stable")
            layer, first = np.unique(reached[new][order], return_index=True)
            latency = sums[new][order][first]
            seen[layer] = True
            nodes.append(layer)
            lats.append(latency)
        nodes, lats = np.concatenate(nodes), np.concatenate(lats)
        order = np.argsort(nodes)
        return nodes[order], lats[order]

    def _ads_request(
        self,
        node: int,
        now: float,
        exclude: Optional[Set[int]] = None,
        positions: Optional[np.ndarray] = None,
        match: Optional[np.ndarray] = None,
    ) -> Tuple[Dict[int, float], int, float]:
        """Ask neighbours within h hops for novel ads.

        Two scopes (DESIGN.md section 3 documents the split):

        * **bootstrap/join** (``positions is None``) -- neighbours return
          every cached ad whose topics overlap the requester's interests:
          the paper's "brand new node" cache transfer;
        * **query fallback** (``positions`` given, with the store's
          ``match`` for them, which the search already has) -- neighbours
          return only cached ads whose filter matches all query-term
          positions, i.e. they run the requester's lookup on their own
          cache.  This keeps per-search fallback cost to a few small
          messages, consistent with the paper's reported search cost.

        Returns ``(new_source -> availability_ms, messages, bytes)`` where
        availability is the supplying neighbour's reply RTT.  ``exclude``
        lists sources the requester just disproved by confirmation -- they
        travel in the request digest, so neighbours do not send them back.

        What every neighbour offers is one (neighbours x sources) mask,
        and :meth:`AdsState.exchange` adopts all of their replies in one
        call, in the order the neighbours were asked (ascending ids).  The
        source map is built only where it is read, by the query fallback;
        an observed run keeps each neighbour's exchange for the
        instrumentation.
        """
        state = self.state
        neighbors, one_way = self._neighbors_within_h(node)
        k = len(neighbors)
        request_size = ADS_REQUEST_BYTES + int(
            math.ceil(int(state.occupancy[node]) * DIGEST_BYTES_PER_ENTRY)
        )
        if positions is None:
            offered = state.entry[neighbors] >= 0
        else:
            offered = state.lookup(neighbors, match)
        if exclude:
            offered[:, list(exclude)] = False
        adopted, _ = state.exchange(node, neighbors, offered, now)
        # Each reply carries its sources' *current* filters, after the
        # reply envelope.
        counts = np.array([len(a) for a in adopted], dtype=np.int64)
        sources = np.concatenate(adopted) if k else counts
        supplier = np.repeat(np.arange(k), counts)
        payload = np.bincount(
            supplier, self.store.full_ad_payload_bytes(sources), minlength=k
        )
        replies = (AD_HEADER_BYTES * (counts + 1) + payload).tolist()
        rtt = 2.0 * one_way
        ledger = self.ledger
        if k:
            # Every request leaves now, so they are booked at once; each
            # reply is booked at its own arrival.
            ledger.record(
                now, TrafficCategory.ADS_REQUEST, k * request_size, messages=k,
            )
        for arrival, nbytes in zip((now + rtt / 1000.0).tolist(), replies):
            ledger.record(arrival, TrafficCategory.ADS_REPLY, nbytes, messages=1)
        new_sources: Dict[int, float] = {}
        if positions is not None:
            for s, t in zip(sources.tolist(), rtt[supplier].tolist()):
                if t < new_sources.get(s, math.inf):
                    new_sources[s] = t
        n_messages, total_bytes = 2 * k, float(k * request_size + sum(replies))
        if self.obs is not None:
            served = [
                (nbr, request_size + nbytes, sources)
                for nbr, nbytes, sources in zip(neighbors.tolist(), replies, adopted)
            ]
            self.obs.ads_exchange(
                now, node, "query" if positions is not None else "bootstrap",
                served, n_messages, total_bytes, float(k * request_size),
            )
        return new_sources, n_messages, total_bytes

    # ---------------------------------------------------------------- search
    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        # The matching documents, once per search: the local check and every
        # confirmation ask ``holds``.
        holds = self.content.holding(self.content.docs_matching(terms))
        if holds(requester):
            return self._local_outcome()

        positions = self.store.hasher.positions_array(terms)
        # One gather answers for every filter version any cache may hold;
        # nothing below writes the store, so it serves the whole search.
        match = self.store.match_current(positions)
        state = self.state

        candidates = np.flatnonzero(state.lookup(requester, match)).tolist()
        avail = {s: 0.0 for s in candidates}

        n_messages = 0
        total_bytes = 0.0
        confirmed: List[Tuple[int, float]] = []  # (source, response_ms)
        tried: Set[int] = set()
        obs = self.obs

        def classify_failure(s: int) -> str:
            """A live source's filter matched but its content did not:
            either a term is genuinely absent from every document the
            source shares (a Bloom false positive on that term) or every
            term exists but spread across documents (a cross-doc split)."""
            if self.content.holds_keywords(s, terms):
                return "failed_split"
            return "failed_bloom_fp"

        def confirm_round(cands: Dict[int, float]) -> None:
            nonlocal n_messages, total_bytes
            pending = [s for s in cands if s not in tried]
            if not pending:
                return
            # Nearest-first: one vectorized latency gather and a stable
            # argsort, so equidistant sources keep candidate order.
            lats = self.overlay.direct_latencies_ms(
                requester, np.asarray(pending, dtype=np.int64)
            )
            idx = np.argsort(lats, kind="stable")[:MAX_CONFIRMATIONS]
            ordered = [(pending[i], float(lats[i])) for i in idx]
            # Every request leaves now, so they are booked at once; each
            # reply is booked at its own arrival.
            self.ledger.record(
                now,
                TrafficCategory.CONFIRMATION,
                len(ordered) * CONFIRMATION_REQUEST_BYTES,
                messages=len(ordered),
            )
            for s, lat in ordered:
                tried.add(s)
                n_messages += 1
                total_bytes += CONFIRMATION_REQUEST_BYTES
                exchanged = CONFIRMATION_REQUEST_BYTES
                if not self.overlay.is_live(s):
                    # Departed source: retire the stale ad.
                    state.remove(requester, s)
                    verdict = "failed_dead"
                else:
                    n_messages += 1
                    total_bytes += CONFIRMATION_REPLY_BYTES
                    self.ledger.record(
                        now + 2.0 * lat / 1000.0,
                        TrafficCategory.CONFIRMATION,
                        CONFIRMATION_REPLY_BYTES,
                        messages=1,
                    )
                    exchanged += CONFIRMATION_REPLY_BYTES
                    if holds(s):
                        confirmed.append((s, cands[s] + 2.0 * lat))
                        verdict = "confirmed"
                    else:
                        # False positive or cross-document term split.
                        state.remove(requester, s)
                        verdict = classify_failure
                if obs is not None:
                    obs.confirmation(now, requester, s, exchanged, verdict)

        confirm_round(avail)

        if len(confirmed) < MORE_RESULTS_THRESHOLD:
            new_sources, req_msgs, req_bytes = self._ads_request(
                requester, now, exclude=tried, positions=positions, match=match
            )
            n_messages += req_msgs
            total_bytes += req_bytes
            if new_sources:
                fresh = np.flatnonzero(state.lookup(requester, match)).tolist()
                round2 = {
                    s: new_sources.get(s, 0.0)
                    for s in fresh
                    if s not in tried
                }
                confirm_round(round2)

        if obs is not None:
            obs.confirm_stats(now)
        if not confirmed:
            return self._failure(n_messages, total_bytes)
        response_time = min(t for _, t in confirmed)
        return SearchOutcome(
            success=True,
            response_time_ms=response_time,
            messages=n_messages,
            cost_bytes=total_bytes,
            results=len(confirmed),
        )
