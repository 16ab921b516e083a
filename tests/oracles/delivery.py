"""Ad-delivery oracles: the per-step loops the walk/flood kernels replaced.

Each function is the pre-kernel body of the matching forwarder's
``deliver`` (``fw`` is the forwarder): the same keyed draws
(:func:`repro.asap.delivery.walk_draws` of the forwarder's key, the source
and its delivery ordinal, counted on ``fw.sent`` as the forwarder counts
it), same ledger writes and instrumentation through the forwarder's own
``_finish``, so reports and the ledger's per-second bytes must match bit
for bit.  A loop counts its messages in a ``{second: messages}`` dict and
hands them over as the ``(first, counts)`` pair the forwarder books.  The
receivers are handed over ascending, as the kernels hand them, since their
order is the order of the receivers' repair traffic.
"""

from collections import defaultdict
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.asap.ads import Ad
from repro.asap.delivery import AdForwarder, DeliveryReport, walk_draws

from tests.oracles.flood import flood_reach_reference

__all__ = ["by_second_counts", "deliver_reference"]


def by_second_counts(by_second: Dict[int, int]) -> Tuple[int, np.ndarray]:
    """``(first, counts)`` of ``{second: messages}``: ``counts[i]`` messages
    in second ``first + i``."""
    if not by_second:
        return 0, np.zeros(0, dtype=np.int64)
    first = min(by_second)
    counts = np.zeros(max(by_second) - first + 1, dtype=np.int64)
    for second, n in by_second.items():
        counts[second - first] = n
    return first, counts


def _deliver_fld(
    fw, ad: Ad, now: float, budget: Optional[int] = None
) -> DeliveryReport:
    """Full Bellman-Ford flood; ``first_hop`` is latency-free."""
    if not fw.overlay.is_live(ad.source):
        return DeliveryReport(np.empty(0, dtype=np.int64))
    first_hop, _, n_messages = flood_reach_reference(
        fw.overlay, ad.source, fw.ttl
    )
    by_second = {int(now): n_messages} if n_messages else {}
    return fw._finish(
        ad, now, np.nonzero(first_hop > 0)[0], *by_second_counts(by_second)
    )


def _deliver_rw(
    fw, ad: Ad, now: float, budget: Optional[int] = None
) -> DeliveryReport:
    """Every walker steps through its whole draw row, one hop at a time."""
    if not fw.overlay.is_live(ad.source):
        return DeliveryReport(np.empty(0, dtype=np.int64))
    total_budget = budget if budget is not None else fw.default_budget(ad)
    per_walker = max(1, total_budget // fw.walkers)
    ordinal = fw.sent[ad.source]
    fw.sent[ad.source] += 1
    csr = fw.overlay.walk_csr()
    indptr, indices, lats = csr.indptr, csr.indices, csr.lats
    visited: Set[int] = set()
    by_second: Dict[int, int] = defaultdict(int)
    draws = walk_draws(fw.key, ad.source, ordinal, fw.walkers, per_walker)
    for w in range(fw.walkers):
        node = ad.source
        elapsed_ms = 0.0
        row = draws[w]
        for step in range(per_walker):
            lo = indptr[node]
            deg = indptr[node + 1] - lo
            if deg == 0:
                break
            j = lo + int(row[step] * deg)
            node = int(indices[j])
            elapsed_ms += lats[j]
            visited.add(node)
            by_second[int(now + elapsed_ms / 1000.0)] += 1
    visited.discard(ad.source)
    return fw._finish(
        ad, now, np.array(sorted(visited), dtype=np.int64),
        *by_second_counts(by_second), budget=fw.walkers * per_walker,
    )


def _deliver_gsa(
    fw, ad: Ad, now: float, budget: Optional[int] = None
) -> DeliveryReport:
    """Per-step walk with one-hop replication over a plain visited set."""
    if not fw.overlay.is_live(ad.source):
        return DeliveryReport(np.empty(0, dtype=np.int64))
    total_budget = budget if budget is not None else fw.default_budget(ad)
    per_walker = max(1, total_budget // fw.walkers)
    ordinal = fw.sent[ad.source]
    fw.sent[ad.source] += 1
    csr = fw.overlay.walk_csr()
    indptr, indices, lats = csr.indptr, csr.indices, csr.lats
    visited: Set[int] = set()
    by_second: Dict[int, int] = defaultdict(int)
    draws = walk_draws(fw.key, ad.source, ordinal, fw.walkers, per_walker)
    for w in range(fw.walkers):
        node = ad.source
        elapsed_ms = 0.0
        remaining = per_walker
        row = draws[w]
        step = 0
        while remaining > 0:
            lo = indptr[node]
            deg = indptr[node + 1] - lo
            if deg == 0:
                break
            # ``step`` can never reach ``per_walker``: every iteration
            # consumes at least one budget unit, so the draw row is
            # always long enough (see the class docstring).
            j = lo + int(row[step] * deg)
            step += 1
            node = int(indices[j])
            elapsed_ms += lats[j]
            visited.add(node)
            remaining -= 1
            by_second[int(now + elapsed_ms / 1000.0)] += 1
            lo2 = indptr[node]
            deg2 = indptr[node + 1] - lo2
            n_push = 0
            for k in range(deg2):
                if n_push >= remaining:
                    break
                p = int(indices[lo2 + k])
                if p in visited or p == ad.source:
                    continue
                visited.add(p)
                n_push += 1
            if n_push > 0:
                remaining -= n_push
                by_second[int(now + elapsed_ms / 1000.0)] += n_push
    visited.discard(ad.source)
    return fw._finish(
        ad, now, np.array(sorted(visited), dtype=np.int64),
        *by_second_counts(by_second), budget=fw.walkers * per_walker,
    )


_BY_KIND = {"fld": _deliver_fld, "rw": _deliver_rw, "gsa": _deliver_gsa}


def deliver_reference(
    fw: AdForwarder, ad: Ad, now: float, budget: Optional[int] = None
) -> DeliveryReport:
    """The loop oracle for ``fw.deliver(ad, now, budget)``."""
    return _BY_KIND[fw.kind](fw, ad, now, budget)
