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
* **content change** -- the source's counting filter updates; if the bitmap
  changed, a patch ad is disseminated; cachers the delivery missed are
  marked *behind* (their entries are evaluated at their recorded version);
* **join** -- the node disseminates a full ad (sharers) and bootstraps its
  cache with an ads request to its neighbours;
* **leave** -- nothing is sent; the node's cached ads survive for a rejoin
  and its own ads decay in others' caches via failed confirmations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.asap.arena import AdsArena, ArenaRepository, CacherIndex
from repro.asap.delivery import AdForwarder, make_forwarder
from repro.asap.store import SourceFilterStore
from repro.workload.interests import InterestState
from repro.search.base import MessageSizes, SearchAlgorithm, SearchOutcome
from repro.sim import kernels
from repro.sim.engine import PeriodicTimer, SimulationEngine
from repro.sim.metrics import ASAP_LOAD_CATEGORIES, TrafficCategory
from repro.bloom.compressed import compressed_filter_size

__all__ = ["AsapParams", "AsapSearch"]


@dataclass(frozen=True)
class AsapParams:
    """ASAP protocol knobs.  Defaults are the paper's (Section IV-A)."""

    forwarder: str = "rw"  # fld | rw | gsa
    ad_ttl: int = 6  # ad flooding TTL (ASAP(FLD))
    ad_walkers: int = 5  # walkers per ad delivery (RW/GSA)
    budget_unit: int = 3000  # M0: per-topic delivery budget
    ads_request_hops: int = 1  # h: ads-request radius
    refresh_period_s: float = 600.0  # periodic refresh-ad interval
    # Refresh ads only need to re-reach nodes that already cache the source
    # (any interested node acquired the ad during dissemination/bootstrap),
    # so they walk with a small fraction of the full delivery budget.
    refresh_budget_fraction: float = 0.1
    max_confirmations: int = 8  # nearest ads confirmed per round
    cache_capacity: Optional[int] = None  # ads-cache bound (None = unbounded)
    ads_request_on_join: bool = True
    bootstrap_ads_request: bool = True  # warm-up ends with an ads request
    # Fraction of join events treated as genuinely new peers (never seen
    # before): they must advertise with a full ad, while ordinary rejoins
    # only re-announce liveness with a refresh ad.  This is the steady
    # trickle of full-ad traffic in the warmed-up system (Figure 7).
    fresh_join_fraction: float = 0.03
    more_results_threshold: int = 1  # fallback when fewer results confirmed
    digest_bytes_per_entry: float = 0.25  # cache digest in the ads request

    def __post_init__(self) -> None:
        if self.forwarder not in ("fld", "rw", "gsa"):
            raise ValueError(f"unknown forwarder {self.forwarder!r}")
        if self.ads_request_hops < 0:
            raise ValueError("ads_request_hops must be >= 0")
        if self.refresh_period_s <= 0:
            raise ValueError("refresh_period_s must be positive")
        if not 0.0 <= self.refresh_budget_fraction <= 1.0:
            raise ValueError("refresh_budget_fraction must be in [0, 1]")
        if self.max_confirmations < 1:
            raise ValueError("max_confirmations must be >= 1")
        if self.more_results_threshold < 1:
            raise ValueError("more_results_threshold must be >= 1")
        if not 0.0 <= self.fresh_join_fraction <= 1.0:
            raise ValueError("fresh_join_fraction must be in [0, 1]")


_SCHEME_NAMES = {"fld": "ASAP(FLD)", "rw": "ASAP(RW)", "gsa": "ASAP(GSA)"}


class AsapSearch(SearchAlgorithm):
    """The advertisement-based search algorithm."""

    load_categories = ASAP_LOAD_CATEGORIES

    def __init__(
        self,
        overlay,
        content,
        ledger,
        sizes: MessageSizes | None = None,
        rng: Optional[np.random.Generator] = None,
        interests: Optional[List[Set[int]]] = None,
        params: AsapParams | None = None,
    ) -> None:
        super().__init__(overlay, content, ledger, sizes, rng)
        if interests is None:
            raise ValueError("ASAP requires per-node interests")
        if len(interests) != overlay.n:
            raise ValueError("interests length must equal overlay size")
        self.params = params or AsapParams()
        self.name = _SCHEME_NAMES[self.params.forwarder]
        self.interests = interests
        self.store = SourceFilterStore(overlay.n, content)
        self.arena = AdsArena(initial_rows=4 * max(overlay.n, 16))
        self.repos: List[ArenaRepository] = [
            ArenaRepository(
                owner=i,
                interests=interests[i],
                store=self.store,
                arena=self.arena,
                capacity=self.params.cache_capacity,
            )
            for i in range(overlay.n)
        ]
        self.cachers = CacherIndex(overlay.n)
        self.forwarder: AdForwarder = make_forwarder(
            self.params.forwarder,
            overlay,
            ledger,
            self.sizes,
            self.rng,
            ttl=self.params.ad_ttl,
            walkers=self.params.ad_walkers,
            budget_unit=self.params.budget_unit,
        )
        self._engine: Optional[SimulationEngine] = None
        self._timers: Dict[int, PeriodicTimer] = {}
        self._advertised: Set[int] = set()  # sources that ever sent a full ad
        # Interest-mask caches for the batched dissemination path.  Node
        # interests are fixed at construction, so the (n, n_classes) CSR-
        # native interest matrix -- and the OR of its columns over an ad's
        # topic set -- is built once and reused for every delivery of that
        # topic set.
        self._interest_state = InterestState(interests)
        self._topic_members: Dict[int, np.ndarray] = {}
        self._interest_masks: Dict[frozenset, np.ndarray] = {}
        self._interest_sets: Dict[frozenset, frozenset] = {}
        # compressed_filter_size is a pure function of (set bits, m) and m
        # is fixed per run; the ads-reply loop hits a handful of distinct
        # set-bit counts thousands of times.
        self._filter_size_memo: Dict[int, float] = {}
        # Ads-reply size per (source, version): the filter's set-bit count
        # only changes when the source's version bumps, so the pair keys
        # the full n_set_bits -> compressed-size derivation.
        self._reply_size_memo: Dict[Tuple[int, int], float] = {}
        # Every repo shares the run-level cache capacity; ``None`` (the
        # default -- the paper's caches are unbounded) unlocks the
        # eviction-free fast path in the batched receiver merge.
        self._no_capacity = self.params.cache_capacity is None

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to the protocol and its ad forwarder."""
        super().set_tracer(tracer)
        self.forwarder.tracer = tracer

    def set_telemetry(self, telemetry) -> None:
        """Attach telemetry to the protocol and its ad forwarder."""
        super().set_telemetry(telemetry)
        self.forwarder.telemetry = telemetry

    # ------------------------------------------------------------- delivery
    def _topic_mask(self, topic: int) -> np.ndarray:
        mask = self._topic_members.get(topic)
        if mask is None:
            mask = self._interest_state.members(topic)
            self._topic_members[topic] = mask
        return mask

    def _interest_mask(self, topics: frozenset) -> np.ndarray:
        """Boolean per-node mask of ``interested_in(topics)`` answers."""
        mask = self._interest_masks.get(topics)
        if mask is None:
            mask = np.zeros(len(self.interests), dtype=bool)
            for topic in topics:
                mask |= self._topic_mask(topic)
            self._interest_masks[topics] = mask
        return mask

    def _interest_set(self, topics: frozenset) -> frozenset:
        """The node ids behind :meth:`_interest_mask`, as a frozenset."""
        nodes = self._interest_sets.get(topics)
        if nodes is None:
            mask = self._interest_mask(topics)
            nodes = frozenset(np.nonzero(mask)[0].tolist())
            self._interest_sets[topics] = nodes
        return nodes

    def _disseminate(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> None:
        """Deliver an ad and update every receiver's cache.

        Receivers that detect a version gap (a patch or refresh whose
        version outruns their cached copy) repair by pulling a fresh full ad
        from the source -- the unicast anti-entropy that keeps caches exact
        and contributes the steady trickle of full-ad bytes in Figure 7's
        breakdown.

        The receiver merge runs array-at-a-time over the pooled repository
        state: the store version, source liveness and per-node interest
        answers are identical for every receiver of one delivery, so they
        are computed once and the per-receiver work collapses to the
        version-merge branch of :meth:`ArenaRepository.accept` inlined with
        those invariants hoisted.  :meth:`_accept_each` is that merge
        without the inlining -- value-identical, one ``accept`` per receiver.
        """
        report = self.forwarder.deliver(ad, now, budget=budget)
        src = ad.source
        repos = self.repos
        cachers_src = self.cachers[src]
        ad_version = ad.version
        ad_topics = ad.topics
        # The receiver loops below are ``store_entry``/entry-proxy
        # operations inlined against the pooled arrays (one topic-set
        # interning per delivery, no per-receiver proxy objects) --
        # value-identical, just without the dispatch.  Array handles are
        # hoisted per branch, after any ``reserve`` that could grow them.
        arena = self.arena
        code = arena.intern_topics(ad_topics)
        # Invariant across the receiver loop: repairs read the store but
        # nothing below writes it, and churn never interleaves mid-event.
        behind_after = ad_version < self.store.version(src)
        if ad.ad_type is AdType.FULL:
            if behind_after or not report.visited:
                # Not taken by the lifecycle above: a full ad is minted and
                # delivered in one event, so it cannot trail the store, and
                # an empty delivery has nobody to merge into.
                self._accept_each(ad, now, report.visited)
                return
            interested = self._interest_mask(ad_topics)
            # Repair-free fast path (fresh full ad, the overwhelmingly
            # common delivery): the only receivers that change state
            # are the interested nodes plus existing holders (holders
            # are always members of ``cachers[src]`` -- every entry
            # store/remove updates it).  Per-receiver effects --
            # including capped-cache evictions, which touch only the
            # receiver's own repo and the victims' cacher bits -- are
            # value-identical and order-independent, so the loop runs
            # over the vectorised interest gather instead of the whole
            # visited set.
            varr = report.visited_arr
            if varr is None:
                varr = np.fromiter(
                    report.visited, np.int64, len(report.visited)
                )
            uninterested_holders = cachers_src.difference(
                self._interest_set(ad_topics)
            )
            # Walk-based deliveries can revisit the source; the kernel
            # gather drops it so the loop below needs no per-node guard
            # (sources never cache themselves).
            receivers = kernels.interested_receivers(
                varr, interested, exclude=src
            ).tolist()
            if uninterested_holders:
                visited_fs = report.visited
                receivers += [
                    node
                    for node in uninterested_holders
                    if node in visited_fs
                ]
            # Reserve the worst-case alloc burst up front so ``_grow``
            # cannot swap the arrays out from under the hoisted handles.
            arena.reserve(len(receivers))
            a_version = arena.version
            a_topics_code = arena.topics_code
            a_cached_at = arena.cached_at
            no_capacity = self._no_capacity
            cachers = self.cachers
            for node in receivers:
                repo = repos[node]
                slot = repo._slot
                row = slot.get(src)
                if row is None:
                    row = arena.alloc()
                    slot[src] = row
                    if not no_capacity:
                        repo._order_append(src, row)
                # Unconditional overwrite: storing a fresh entry and
                # replacing an existing entry's fields in place are
                # value-identical.
                a_version[row] = ad_version
                a_topics_code[row] = code
                a_cached_at[row] = now
                behind = repo.behind
                if behind:
                    behind.discard(src)
                if not no_capacity and len(slot) > repo.capacity:
                    for ev in repo._evict(protect=src):
                        cachers[ev].discard(node)
            cachers_src.update(receivers)
        else:
            is_patch = ad.ad_type is AdType.PATCH
            live_src = self.overlay.is_live(src)
            repair_plan = None
            # No allocations happen in this branch (patches/refreshes only
            # mutate existing rows; repair pulls reuse the row in place),
            # so the handles stay valid for the whole loop.
            a_version = arena.version
            a_topics_code = arena.topics_code
            a_cached_at = arena.cached_at
            for node in report.visited:
                if node not in cachers_src:
                    # Only holders react to patches/refreshes, and every
                    # holder is a member of ``cachers[src]`` -- one set
                    # probe replaces the repo/entry lookup for the (large)
                    # uninterested majority of the flood's receivers.
                    continue
                repo = repos[node]
                row = repo._slot.get(src)
                if row is None:
                    # No base entry: patches and refreshes are no-ops (and
                    # the source never caches itself).
                    continue
                if is_patch:
                    held = a_version[row]
                    if ad_version == held + 1:
                        a_version[row] = ad_version
                        a_topics_code[row] = code
                        a_cached_at[row] = now
                        if behind_after:
                            repo.behind.add(src)
                        else:
                            repo.behind.discard(src)
                    elif ad_version > held:
                        repo.behind.add(src)
                        a_cached_at[row] = now
                else:  # REFRESH: renew recency, detect missed patches
                    a_cached_at[row] = now
                    if ad_version > a_version[row]:
                        repo.behind.add(src)
                cachers_src.add(node)
                if live_src and src in repo.behind:
                    if repair_plan is None:
                        repair_plan = self._repair_plan(src)
                    self._repair_entry(node, src, now, plan=repair_plan)
        if ad.ad_type is AdType.PATCH:
            # Cachers the delivery missed now lag the source's filter.
            for node in cachers_src - set(report.visited):
                repos[node].mark_behind(src)

    def _accept_each(self, ad: Ad, now: float, receivers) -> None:
        """Merge a delivered ad into ``receivers``' caches, one ``accept`` each.

        The general receiver merge: any ad type, any subset of the visited
        nodes (the super-peer variant passes only its caching tier).
        :meth:`_disseminate` inlines these steps for the hot cases; the
        differential tests drive whole runs through this loop instead, as
        that inlining's oracle.
        """
        src = ad.source
        cachers_src = self.cachers[src]
        live_src = self.overlay.is_live(src)
        for node in receivers:
            repo = self.repos[node]
            stored, evicted = repo.accept(ad, now)
            if stored:
                cachers_src.add(node)
            for evicted_source in evicted:
                self.cachers[evicted_source].discard(node)
            if live_src and src in repo.behind:
                self._repair_entry(node, src, now)
        if ad.ad_type is AdType.PATCH:
            # Cachers the delivery missed now lag the source's filter.
            for node in cachers_src - set(receivers):
                self.repos[node].mark_behind(src)

    def _repair_plan(self, source: int) -> Dict[str, object]:
        """Hoist the per-source half of :meth:`_repair_entry`.

        Everything here reads only store state, which is constant across
        one delivery's receiver loop -- so one plan serves every repair
        pull that a single dissemination triggers.
        """
        full = self.store.make_full_ad(source)
        if full is None:
            return {"full": None}
        return {
            "full": full,
            "full_reply": full.size_bytes(self.sizes),
            "history": [
                (version, len(changed))
                for version, changed in self.store.patch_history(source)
            ],
            "version": self.store.version(source),
            "topics": self.store.topics(source),
        }

    def _repair_entry(
        self,
        node: int,
        source: int,
        now: float,
        plan: Optional[Dict[str, object]] = None,
    ) -> None:
        """Heal a version gap by pulling the missed patches from the source.

        The reply carries the changed-bit lists of every patch the cache
        missed (2 bytes per bit, as on any patch ad); when the cache is so
        far behind that a fresh full ad is smaller, the source sends that
        instead.  Either way the entry ends at the current version.

        ``plan`` optionally carries the per-source invariants precomputed
        by :meth:`_repair_plan`; omitted, they are derived here exactly as
        the batched caller would have.
        """
        repo = self.repos[node]
        entry = repo.entry(source)
        if entry is None:
            return
        request_bytes = float(self.sizes.ads_request)
        self.ledger.record(
            now, TrafficCategory.ADS_REQUEST, self.sizes.ads_request, messages=1
        )
        lat = self.overlay.direct_latency_ms(node, source)
        if plan is None:
            plan = self._repair_plan(source)
        full = plan["full"]
        if full is None:
            # Source shares nothing any more: the stale entry is worthless.
            repo.remove(source)
            self.cachers[source].discard(node)
            if self.tracer.enabled:
                self.tracer.event(
                    "ad", "repair", now,
                    node=int(node), source=int(source),
                    request_bytes=request_bytes,
                    reply_bytes=0.0, reply_category=None,
                )
            return
        missed_bits = sum(
            n_bits
            for version, n_bits in plan["history"]
            if version > entry.version
        )
        patch_reply = self.sizes.ad_header + 2 * missed_bits
        full_reply = plan["full_reply"]
        if patch_reply <= full_reply:
            category, reply_bytes = TrafficCategory.PATCH_AD, patch_reply
        else:
            category, reply_bytes = TrafficCategory.FULL_AD, full_reply
        self.ledger.record(
            now + 2.0 * lat / 1000.0, category, reply_bytes, messages=1
        )
        if self.telemetry.enabled:
            # The source serves the repair; the request came from ``node``.
            self.telemetry.record_repair(
                now, int(source), request_bytes + float(reply_bytes)
            )
        if self.tracer.enabled:
            # The byte split lets the auditor attribute request and reply
            # to their ledger categories without re-deriving the sizes.
            self.tracer.event(
                "ad", "repair", now,
                node=int(node), source=int(source),
                request_bytes=request_bytes,
                reply_bytes=float(reply_bytes),
                reply_category=category.value,
            )
        stored, evicted = repo.accept_snapshot(
            source, plan["version"], plan["topics"], now
        )
        if stored:
            self.cachers[source].add(node)
        for ev in evicted:
            self.cachers[ev].discard(node)

    def _issue_full_ad(self, source: int, now: float) -> None:
        ad = self.store.make_full_ad(source)
        if ad is not None:
            self._advertised.add(source)
            self._disseminate(ad, now)

    def _issue_refresh_ad(self, source: int, now: float) -> None:
        ad = self.store.make_refresh_ad(source)
        if ad is None:
            return
        budget = None
        if self.params.forwarder in ("rw", "gsa"):
            budget = max(
                1,
                int(
                    self.forwarder.default_budget(ad)
                    * self.params.refresh_budget_fraction
                ),
            )
        self._disseminate(ad, now, budget=budget)

    # --------------------------------------------------------------- warmup
    def warmup(self, engine: SimulationEngine, start: float, duration: float) -> None:
        """Schedule initial full-ad dissemination and refresh timers.

        Full ads go out at jittered times in the first 60% of the window so
        even the slowest walk delivery completes before measurement starts.
        If ``bootstrap_ads_request`` is set, every node then performs the
        "brand new node" ads request (Section III-C) late in the window,
        merging its neighbours' caches -- this is the gossip step that makes
        local lookups hit at query time.
        """
        self._engine = engine
        rng = self.rng
        # One vectorised live gather instead of n is_live probes; the
        # ascending order matches the range loop it replaces, so the rng
        # draw sequence -- and every jittered schedule -- is unchanged.
        for node in self.overlay.live_nodes().tolist():
            if self.store.is_sharer(node):
                at = start + float(rng.random()) * max(0.6 * duration, 1e-9)
                engine.schedule_at(
                    at,
                    lambda n=node: self._issue_full_ad(n, self._engine.now),
                    name=f"full-ad-{node}",
                )
            if self.params.bootstrap_ads_request:
                at = start + (0.7 + 0.25 * float(rng.random())) * max(duration, 1e-9)
                engine.schedule_at(
                    at,
                    lambda n=node: self._ads_request(n, self._engine.now),
                    name=f"bootstrap-{node}",
                )
            self._start_refresh_timer(node, phase_base=start + duration)

    def _start_refresh_timer(self, node: int, phase_base: float) -> None:
        if self._engine is None or node in self._timers:
            return
        period = self.params.refresh_period_s
        # Jittered phase so refreshes spread across the period.
        phase = (
            phase_base
            - self._engine.now
            + float(self.rng.random()) * period
        )
        self._timers[node] = PeriodicTimer(
            self._engine,
            period=period,
            callback=lambda n=node: self._refresh_tick(n),
            phase=max(phase, 1e-9),
            name=f"refresh-{node}",
        )

    def _refresh_tick(self, node: int) -> None:
        if self.overlay.is_live(node):
            self._issue_refresh_ad(node, self._engine.now)

    # ---------------------------------------------------------------- churn
    def on_join(self, node: int, now: float) -> None:
        # A rejoining node's content did not change while it was offline
        # (observation 3, Section III-A), so peers that cached its ad still
        # hold a valid copy: a refresh ad (header-only) re-announces
        # liveness at a fraction of a full ad's cost.  Never-advertised
        # sharers -- and the occasional genuinely new peer -- pay for a
        # full ad.
        fresh = (
            node not in self._advertised
            or float(self.rng.random()) < self.params.fresh_join_fraction
        )
        if fresh:
            self._issue_full_ad(node, now)
        else:
            self._issue_refresh_ad(node, now)
        if self.params.ads_request_on_join:
            self._ads_request(node, now)
        if self._engine is not None and node not in self._timers:
            self._start_refresh_timer(node, phase_base=now)

    def on_leave(self, node: int, now: float) -> None:
        timer = self._timers.pop(node, None)
        if timer is not None:
            timer.stop()
        # The node's repo is retained for a possible rejoin (paper: "if a
        # node stays offline for a long time and then rejoins, the ads in
        # its cache could be mostly out of date" -- the ads request on
        # rejoin compensates).

    def on_content_change(self, node: int, doc, added: bool, now: float) -> None:
        ad = self.store.apply_content_change(node, doc, added)
        if ad is not None and self.overlay.is_live(node):
            self._disseminate(ad, now)

    # ------------------------------------------------------------ ads request
    def _neighbors_within_h(self, node: int) -> List[Tuple[int, float]]:
        """Live nodes within ``h`` overlay hops with one-way path latency."""
        h = self.params.ads_request_hops
        if h == 0:
            return []
        nbrs, lats = self.overlay.live_neighbors(node)
        frontier = {int(v): float(l) for v, l in zip(nbrs, lats)}
        result = dict(frontier)
        for _ in range(h - 1):
            nxt: Dict[int, float] = {}
            for v, d in frontier.items():
                vn, vl = self.overlay.live_neighbors(v)
                for w, l in zip(vn, vl):
                    w = int(w)
                    if w == node or w in result:
                        continue
                    cand = d + float(l)
                    if w not in nxt or cand < nxt[w]:
                        nxt[w] = cand
            result.update(nxt)
            frontier = nxt
        return sorted(result.items())

    def _ads_request(
        self,
        node: int,
        now: float,
        exclude: Optional[Set[int]] = None,
        positions: Optional[np.ndarray] = None,
    ) -> Tuple[Dict[int, float], int, float]:
        """Ask neighbours within h hops for novel ads.

        Two scopes (DESIGN.md section 3 documents the split):

        * **bootstrap/join** (``positions is None``) -- neighbours return
          every cached ad whose topics overlap the requester's interests:
          the paper's "brand new node" cache transfer;
        * **query fallback** (``positions`` given) -- neighbours return only
          cached ads whose filter matches all query-term positions, i.e.
          they run the requester's lookup on their own cache.  This keeps
          per-search fallback cost to a few small messages, consistent with
          the paper's reported search cost.

        Returns ``(new_source -> availability_ms, messages, bytes)`` where
        availability is the supplying neighbour's reply RTT.  ``exclude``
        lists sources the requester just disproved by confirmation -- they
        travel in the request digest, so neighbours do not send them back.

        The per-neighbour merge loop inlines
        :meth:`ArenaRepository.accept_snapshot` and ``interested_in`` with
        the requester-side invariants (interest set, slot dict, store
        handles) hoisted, and memoizes the compressed-filter reply size per
        set-bit count (``tests/oracles/asap.py`` keeps the
        method-call-per-ad loop it is checked against).
        """
        exclude = exclude or set()
        repo = self.repos[node]
        repos = self.repos
        repo_interests = repo.interests
        repo_behind = repo.behind
        repo_capacity = repo.capacity
        store = self.store
        store_version = store._version
        # Hoisted arena handles: the novel-ad merge below reads and writes
        # the pooled arrays directly (no per-ad entry proxies, topic codes
        # copied neighbour-row -> own-row without re-interning).  Array
        # handles are re-fetched per neighbour after reserving the
        # worst-case alloc burst, since ``_grow`` replaces the arrays.
        arena = self.arena
        topics_list = arena._topics_list
        arena_alloc = arena.alloc
        repo_slot = repo._slot
        cachers = self.cachers
        ad_header = self.sizes.ad_header
        filter_bits = store.hasher.m
        size_memo = self._filter_size_memo
        reply_size_memo = self._reply_size_memo
        ledger = self.ledger
        telemetry = self.telemetry if self.telemetry.enabled else None
        neighbors = self._neighbors_within_h(node)
        new_sources: Dict[int, float] = {}
        n_messages = 0
        total_bytes = 0.0
        request_total = 0.0
        request_size = self.sizes.ads_request + int(
            math.ceil(len(repo) * self.params.digest_bytes_per_entry)
        )
        current_match = (
            store.match_current(positions) if positions is not None else None
        )
        for nbr, one_way in neighbors:
            n_messages += 1
            total_bytes += request_size
            request_total += request_size
            ledger.record(
                now, TrafficCategory.ADS_REQUEST, request_size, messages=1
            )
            nbr_slot = repos[nbr]._slot
            if positions is None:
                offered = nbr_slot.keys() - repo_slot.keys()
            else:
                offered = set(repos[nbr].lookup(positions, current_match))
                offered -= repo_slot.keys()
            if exclude:
                offered -= exclude
            offered.discard(node)
            novel = sorted(offered)
            arena.reserve(len(novel))
            a_version = arena.version
            a_topics_code = arena.topics_code
            a_cached_at = arena.cached_at
            reply_bytes = float(ad_header)  # reply envelope
            rtt = 2.0 * one_way
            for s in novel:
                row = nbr_slot[s]
                code = a_topics_code[row]
                topics = topics_list[code]
                if repo_interests.isdisjoint(topics):
                    continue
                # accept_snapshot, inlined: ``s != node`` and interest
                # already hold, and ``novel`` is recomputed against the
                # requester's slot dict per neighbour, so ``s`` is never
                # held here -- always a fresh row, always stored.
                version = a_version[row]
                repo_slot[s] = mine_row = arena_alloc()
                if repo_capacity is not None:
                    repo._order_append(s, mine_row)
                a_version[mine_row] = version
                a_topics_code[mine_row] = code
                a_cached_at[mine_row] = now
                if version < store_version[s]:
                    repo_behind.add(s)
                else:
                    repo_behind.discard(s)
                # The reply carries the source's *current* filter; its
                # set-bit count -- and therefore the compressed size -- can
                # only change when the source's version bumps, so (s,
                # version) keys the whole derivation.
                size_key = (s, int(store_version[s]))
                size = reply_size_memo.get(size_key)
                if size is None:
                    n_set = store.n_set_bits(s)
                    size = size_memo.get(n_set)
                    if size is None:
                        size = compressed_filter_size(n_set, filter_bits)
                        size_memo[n_set] = size
                    reply_size_memo[size_key] = size
                reply_bytes += ad_header + size
                cachers[s].add(node)
                if repo_capacity is not None:
                    for ev in repo._evict(protect=s):
                        cachers[ev].discard(node)
                if s not in new_sources or rtt < new_sources[s]:
                    new_sources[s] = rtt
            n_messages += 1
            total_bytes += reply_bytes
            ledger.record(
                now + rtt / 1000.0,
                TrafficCategory.ADS_REPLY,
                reply_bytes,
                messages=1,
            )
            if telemetry is not None:
                # The serving neighbour pays for the reply it assembled.
                telemetry.record_ads_request(
                    now, int(nbr), request_size + reply_bytes
                )
        if self.tracer.enabled:
            self.tracer.event(
                "ad",
                "ads_request",
                now,
                node=int(node),
                scope="query" if positions is not None else "bootstrap",
                neighbors=len(neighbors),
                new_sources=len(new_sources),
                messages=n_messages,
                cost_bytes=total_bytes,
                request_bytes=request_total,
                reply_bytes=total_bytes - request_total,
            )
        return new_sources, n_messages, total_bytes

    # ---------------------------------------------------------------- search
    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        if self._local_hit(requester, terms):
            return self._local_outcome()

        positions = self.store.hasher.positions_array(terms)
        current_match = self.store.match_current(positions)
        repo = self.repos[requester]

        candidates = repo.lookup(positions, current_match)
        avail = {s: 0.0 for s in candidates}

        n_messages = 0
        total_bytes = 0.0
        confirmed: List[Tuple[int, float]] = []  # (source, response_ms)
        tried: Set[int] = set()
        # Confirmation accounting for the trace (attempted / confirmed /
        # failure classes); only maintained when tracing is on.
        stats = {
            "attempted": 0,
            "confirmed": 0,
            "failed_dead": 0,
            "failed_bloom_fp": 0,
            "failed_split": 0,
        }

        def classify_failure(s: int) -> str:
            """A live source's filter matched but its content did not:
            either a term is genuinely absent from every document the
            source shares (a Bloom false positive on that term) or every
            term exists but spread across documents (a cross-doc split)."""
            shared = self.content.docs_on(s)
            for term in terms:
                if not any(
                    term in self.content.document(d).keywords for d in shared
                ):
                    return "failed_bloom_fp"
            return "failed_split"

        def confirm_round(cands: Dict[int, float]) -> None:
            nonlocal n_messages, total_bytes
            traced = self.tracer.enabled
            telemetry = self.telemetry
            cap = self.params.max_confirmations
            pending = [s for s in cands if s not in tried]
            if not pending:
                return
            # Nearest-first: one vectorized latency gather and a stable
            # argsort, so equidistant sources keep candidate order.
            lats = self.overlay.direct_latencies_ms(
                requester, np.asarray(pending, dtype=np.int64)
            )
            idx = np.argsort(lats, kind="stable")[:cap]
            ordered = [(pending[i], float(lats[i])) for i in idx]
            for s, lat in ordered:
                tried.add(s)
                n_messages += 1
                total_bytes += self.sizes.confirmation_request
                self.ledger.record(
                    now,
                    TrafficCategory.CONFIRMATION,
                    self.sizes.confirmation_request,
                    messages=1,
                )
                if traced:
                    stats["attempted"] += 1
                if not self.overlay.is_live(s):
                    # Departed source: retire the stale ad.
                    repo.remove(s)
                    self.cachers[s].discard(requester)
                    if traced:
                        stats["failed_dead"] += 1
                    if telemetry.enabled:
                        telemetry.record_confirmation(
                            now, requester, int(s),
                            self.sizes.confirmation_request,
                        )
                    continue
                n_messages += 1
                total_bytes += self.sizes.confirmation_reply
                self.ledger.record(
                    now + 2.0 * lat / 1000.0,
                    TrafficCategory.CONFIRMATION,
                    self.sizes.confirmation_reply,
                    messages=1,
                )
                if telemetry.enabled:
                    telemetry.record_confirmation(
                        now, requester, int(s),
                        self.sizes.confirmation_request
                        + self.sizes.confirmation_reply,
                    )
                if self.content.node_matches(s, terms):
                    confirmed.append((s, cands[s] + 2.0 * lat))
                    if traced:
                        stats["confirmed"] += 1
                else:
                    # False positive or cross-document term split.
                    repo.remove(s)
                    self.cachers[s].discard(requester)
                    if traced:
                        stats[classify_failure(s)] += 1

        confirm_round(avail)

        if len(confirmed) < self.params.more_results_threshold:
            new_sources, req_msgs, req_bytes = self._ads_request(
                requester, now, exclude=tried, positions=positions
            )
            n_messages += req_msgs
            total_bytes += req_bytes
            if new_sources:
                fresh = repo.lookup(positions, self.store.match_current(positions))
                round2 = {
                    s: new_sources.get(s, 0.0)
                    for s in fresh
                    if s not in tried
                }
                confirm_round(round2)

        if self.tracer.enabled:
            # Nested inside the query span: ties the confirmation byte
            # movement (ledger_delta) back to individual attempts and feeds
            # the measured Bloom false-positive rate.
            self.tracer.event("query", "confirm_stats", now, **stats)
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
