"""The ads exchange the way it was first written: one supplier at a time.

:func:`exchange_reference` is ``AdsState.exchange`` as a loop over the
suppliers.  Each reply is a masked row difference -- what the supplier
offers, minus what the requester holds when the reply arrives -- stored by
its own insert-then-evict step for many ads to one receiver, whose victims
are the row's smallest (stamp, insertion number) keys by ``argpartition``.
:func:`ads_request_reference` is ``AsapSearch._ads_request`` around it,
with a request and a reply booked per neighbour and the neighbours within
h hops found by a hop-by-hop dictionary search.
"""

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.asap.protocol import DIGEST_BYTES_PER_ENTRY
from repro.asap.state import _ABSENT, _NEVER, _SEQ_LIMIT, _SHIFT
from repro.search.base import AD_HEADER_BYTES, ADS_REQUEST_BYTES
from repro.sim.metrics import TrafficCategory
from repro.workload.interests import N_CLASSES

__all__ = [
    "adopt_reference",
    "ads_request_reference",
    "exchange_reference",
    "neighbors_within_h_reference",
]


def _insert_many(state, peer: int, sources: np.ndarray, words: np.ndarray, tick: int):
    """Start caching ``words`` at ``[peer, sources]``: the interesting ones,
    numbered in array order, then the row's excess evicted oldest first."""
    topics = (words >> 1) & ((1 << N_CLASSES) - 1)
    stored = (state.interest_bits[peer] & topics) != 0
    k = int(np.count_nonzero(stored))
    if k == 0:
        return stored, []
    if state.seq is not None and state._next_seq + k > _SEQ_LIMIT:
        raise OverflowError("ads-cache insertion counter exhausted")
    sources, words = sources[stored], words[stored]
    state.occupancy[peer] += k
    state.entry[peer, sources] = words
    state.stamp[peer, sources] = tick
    if state.seq is None:
        return stored, []
    state.seq[peer, sources] = np.arange(state._next_seq, state._next_seq + k)
    state._next_seq += k
    excess = int(state.occupancy[peer]) - state.capacity
    if excess <= 0:
        return stored, []
    row = state._rank(peer)
    victims = np.argpartition(row, excess - 1)[:excess]
    victims = victims[np.argsort(row[victims])]
    state.entry[peer, victims] = _ABSENT
    state.stamp[peer, victims] = _NEVER
    state.occupancy[peer] -= excess
    return stored, [(peer, source) for source in victims.tolist()]


def adopt_reference(state, peer: int, supplier: int, sources: np.ndarray, now: float):
    """``peer`` starts caching ``supplier``'s entries for ``sources``, which
    the supplier holds and ``peer`` does not: ``(stored mask, evicted
    (peer, source) pairs)``."""
    words = state.entry[supplier, sources]
    behind = words < (state.store._version[sources] << _SHIFT)
    return _insert_many(state, peer, sources, (words & ~1) | behind, state._tick(now))


def exchange_reference(
    state, peer: int, suppliers: np.ndarray, offered: np.ndarray, now: float
) -> Tuple[List[np.ndarray], np.ndarray]:
    """``AdsState.exchange``, one supplier's reply after the other."""
    adopted, evicted = [], []
    for supplier, offer in zip(np.asarray(suppliers).tolist(), offered):
        offer = offer & (state.entry[peer] < 0)
        offer[peer] = False
        novel = np.flatnonzero(offer)
        stored, gone = adopt_reference(state, peer, supplier, novel, now)
        adopted.append(novel[stored])
        evicted += [source for _, source in gone]
    return adopted, np.array(evicted, dtype=np.intp)


def neighbors_within_h_reference(algo, node: int) -> List[Tuple[int, float]]:
    """Live nodes within ``h`` hops with one-way path latency, ascending."""
    h = algo.params.ads_request_hops
    if h == 0:
        return []
    nbrs, lats = algo.overlay.live_neighbors(node)
    frontier = {int(v): float(l) for v, l in zip(nbrs, lats)}
    result = dict(frontier)
    for _ in range(h - 1):
        nxt: Dict[int, float] = {}
        for v, d in frontier.items():
            vn, vl = algo.overlay.live_neighbors(v)
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


def ads_request_reference(
    algo,
    node: int,
    now: float,
    exclude: Optional[Set[int]] = None,
    positions: Optional[np.ndarray] = None,
    match: Optional[np.ndarray] = None,
) -> Tuple[Dict[int, float], int, float]:
    """``AsapSearch._ads_request``, one neighbour's exchange at a time."""
    state, store, ledger, obs = algo.state, algo.store, algo.ledger, algo.obs
    served = []  # (neighbour, request + reply bytes, sources adopted)
    neighbors = neighbors_within_h_reference(algo, node)
    new_sources: Optional[Dict[int, float]] = None if positions is None else {}
    n_messages = 0
    total_bytes = 0.0
    request_total = 0.0
    request_size = ADS_REQUEST_BYTES + int(
        math.ceil(int(state.occupancy[node]) * DIGEST_BYTES_PER_ENTRY)
    )
    if neighbors:
        ledger.record(
            now, TrafficCategory.ADS_REQUEST,
            len(neighbors) * request_size, messages=len(neighbors),
        )
    for nbr, one_way in neighbors:
        n_messages += 2
        total_bytes += request_size
        request_total += request_size
        if positions is None:
            offered = state.entry[nbr] >= 0
        else:
            offered = state.lookup(nbr, match)
        offered &= state.entry[node] < 0
        offered[node] = False
        if exclude:
            offered[list(exclude)] = False
        novel = np.flatnonzero(offered)
        stored, _ = adopt_reference(state, node, nbr, novel, now)
        novel = novel[stored]
        payload = store.full_ad_payload_bytes(novel)
        reply_bytes = float(AD_HEADER_BYTES * (len(novel) + 1) + int(payload.sum()))
        rtt = 2.0 * one_way
        if new_sources is not None:
            for s in novel.tolist():
                if s not in new_sources or rtt < new_sources[s]:
                    new_sources[s] = rtt
        total_bytes += reply_bytes
        ledger.record(
            now + rtt / 1000.0, TrafficCategory.ADS_REPLY, reply_bytes, messages=1
        )
        served.append((nbr, request_size + reply_bytes, novel))
    if obs is not None:
        obs.ads_exchange(
            now, node, "query" if positions is not None else "bootstrap",
            served, n_messages, total_bytes, request_total,
        )
    return new_sources or {}, n_messages, total_bytes
