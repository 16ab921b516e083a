"""ASAP protocol oracle: the protocol the way it was first written.

:class:`OracleAsapSearch` is :class:`~repro.asap.protocol.AsapSearch` with
every optimised layer swapped for its plain predecessor -- one
:class:`~tests.oracles.repository.CacheEntry` object per cached ad in one
repository object per node (the inherited dense state stays empty),
per-step delivery loops, one ``accept`` and one repair pull per receiver,
one ``accept_snapshot`` per offered ad.  Repository and ledger state and
every return value must match the product bit for bit.
"""

import math
from functools import partial
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.asap.ads import AdType
from repro.asap.protocol import DIGEST_BYTES_PER_ENTRY, AsapSearch
from repro.bloom.compressed import compressed_filter_size
from repro.search.base import AD_HEADER_BYTES, ADS_REQUEST_BYTES
from repro.sim.metrics import TrafficCategory

from tests.oracles.delivery import deliver_reference
from tests.oracles.exchange import neighbors_within_h_reference
from tests.oracles.repository import AdsRepository
from tests.oracles.store import patch_history

__all__ = ["OracleAsapSearch"]


class _RepoRows:
    """What ``AsapSearch._search_impl`` reads of its ``AdsState`` -- a row
    lookup and a removal -- answered by the repository objects, for the
    query whose term ``positions`` it is built with."""

    def __init__(self, repos, positions: np.ndarray) -> None:
        self.repos = repos
        self.positions = positions

    def lookup(self, peer: int, match: np.ndarray) -> np.ndarray:
        hits = np.zeros(len(self.repos), dtype=bool)
        hits[self.repos[peer].lookup(self.positions, match)] = True
        return hits

    def remove(self, peer: int, source: int) -> None:
        self.repos[peer].remove(source)


class OracleAsapSearch(AsapSearch):
    """Object-backed, method-call-per-ad ASAP."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.repos = [
            AdsRepository(
                owner=i,
                interests={c for c in range(63) if bits >> c & 1},
                store=self.store,
                capacity=self.params.cache_capacity,
            )
            for i, bits in enumerate(self.interests.bitmasks.tolist())
        ]
        self.forwarder.deliver = partial(deliver_reference, self.forwarder)

    def _search_impl(self, requester, terms, now):
        dense = self.state
        self.state = _RepoRows(self.repos, self.store.hasher.positions_array(terms))
        try:
            return super()._search_impl(requester, terms, now)
        finally:
            self.state = dense

    def _merge_ad(self, ad, now, receivers) -> None:
        src = ad.source
        live_src = self.overlay.is_live(src)
        receivers = receivers.tolist()
        for node in receivers:
            repo = self.repos[node]
            repo.accept(ad, now)
            if live_src and src in repo.behind:
                self._repair_entry(node, src, now, self._repair_plan(src))
        if ad.ad_type is AdType.PATCH:
            # Cachers the delivery missed now lag the source's filter.
            for node in set(range(self.overlay.n)) - set(receivers):
                self.repos[node].mark_behind(src)

    def _repair_plan(self, source: int) -> Dict[str, object]:
        """The per-source half of :meth:`_repair_entry` (store reads only)."""
        full = self.store.make_full_ad(source)
        if full is None:
            return {"full": None}
        return {
            "full": full,
            "full_reply": full.size_bytes(),
            "history": [
                (version, len(changed))
                for version, changed in patch_history(self.store, source)
            ],
            "version": self.store.version(source),
            "topics": self.store.topics(source),
        }

    def _repair_entry(
        self, node: int, source: int, now: float, plan: Dict[str, object]
    ) -> None:
        """Heal a version gap by pulling the missed patches from the source.

        The reply carries the changed-bit lists of every patch the cache
        missed (2 bytes per bit, as on any patch ad); when the cache is so
        far behind that a fresh full ad is smaller, the source sends that
        instead.  Either way the entry ends at the current version.
        ``plan`` is the source's :meth:`_repair_plan`.
        """
        repo = self.repos[node]
        cached_version = repo.version(source)
        if cached_version < 0:
            return
        request_bytes = float(ADS_REQUEST_BYTES)
        self.ledger.record(
            now, TrafficCategory.ADS_REQUEST, ADS_REQUEST_BYTES, messages=1
        )
        lat = self.overlay.direct_latency_ms(node, source)
        full = plan["full"]
        if full is None:
            # Source shares nothing any more: the stale entry is worthless.
            repo.remove(source)
            category, reply_bytes = None, 0.0
        else:
            missed_bits = sum(
                n_bits
                for version, n_bits in plan["history"]
                if version > cached_version
            )
            patch_reply = AD_HEADER_BYTES + 2 * missed_bits
            full_reply = plan["full_reply"]
            if patch_reply <= full_reply:
                category, reply_bytes = TrafficCategory.PATCH_AD, patch_reply
            else:
                category, reply_bytes = TrafficCategory.FULL_AD, full_reply
            self.ledger.record(
                now + 2.0 * lat / 1000.0, category, reply_bytes, messages=1
            )
            repo.accept_snapshot(source, plan["version"], plan["topics"], now)
        if self.obs is not None:
            self.obs.repairs(now, [node], source, request_bytes, [reply_bytes], [category])

    def _ads_request(
        self,
        node: int,
        now: float,
        exclude: Optional[Set[int]] = None,
        positions: Optional[np.ndarray] = None,
        match: Optional[np.ndarray] = None,
    ) -> Tuple[Dict[int, float], int, float]:
        exclude = exclude or set()
        repo = self.repos[node]
        neighbors = neighbors_within_h_reference(self, node)
        new_sources: Dict[int, float] = {}
        served = []  # (neighbour, request + reply bytes, sources adopted)
        n_messages = 0
        total_bytes = 0.0
        request_total = 0.0
        request_size = ADS_REQUEST_BYTES + int(
            math.ceil(len(repo) * DIGEST_BYTES_PER_ENTRY)
        )
        for nbr, one_way in neighbors:
            n_messages += 1
            total_bytes += request_size
            request_total += request_size
            self.ledger.record(
                now, TrafficCategory.ADS_REQUEST, request_size, messages=1
            )
            nbr_repo = self.repos[nbr]
            if positions is None:
                offered = nbr_repo.entries.keys()
            else:
                offered = nbr_repo.lookup(positions, match)
            novel = [
                s
                for s in sorted(set(offered) - repo.entries.keys() - exclude)
                if s != node
            ]
            reply_bytes = float(AD_HEADER_BYTES)  # reply envelope
            rtt = 2.0 * one_way
            adopted = []
            for s in novel:
                entry = nbr_repo.entries[s]
                if not repo.interested_in(entry.topics):
                    continue
                stored, _ = repo.accept_snapshot(
                    s, entry.version, entry.topics, now
                )
                reply_bytes += AD_HEADER_BYTES + compressed_filter_size(
                    self.store.n_set_bits(s), self.store.hasher.m
                )
                if stored:
                    adopted.append(s)
                    if s not in new_sources or rtt < new_sources[s]:
                        new_sources[s] = rtt
            n_messages += 1
            total_bytes += reply_bytes
            self.ledger.record(
                now + rtt / 1000.0,
                TrafficCategory.ADS_REPLY,
                reply_bytes,
                messages=1,
            )
            served.append(
                (nbr, request_size + reply_bytes, np.array(adopted, dtype=np.int64))
            )
        if self.obs is not None:
            self.obs.ads_exchange(
                now, node, "query" if positions is not None else "bootstrap",
                served, n_messages, total_bytes, request_total,
            )
        return new_sources, n_messages, total_bytes
