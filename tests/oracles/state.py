"""Ads-state oracle: the O(n^2) invariant audit of a dense :class:`AdsState`."""

from typing import Any, Dict

import numpy as np

__all__ = ["check_arena_health"]


def check_arena_health(algorithm) -> Dict[str, Any]:
    """Audit the invariants the dense ads state can still break.

    That every (peer, source) pair has exactly one cell is structural;
    what the merge code must keep true is checked here: each peer's
    occupancy counter equals its held count, a pair has a recency stamp
    exactly when it has an entry (``behind`` is a bit of the entry word,
    so it cannot outlive one), no cache exceeds the capacity, and no peer
    caches itself.
    O(n^2), so not part of the periodic snapshot.
    """
    cache = algorithm.state
    held = cache.held_mask()
    report = {
        "rows_live": int(cache.occupancy.sum()),
        "occupancy": int(np.count_nonzero(held)),
        "live_matches_occupancy": bool(
            np.array_equal(cache.occupancy, held.sum(axis=1))
        ),
        "stamped_iff_held": bool(
            np.array_equal(cache.stamp != np.iinfo(np.int32).max, held)
        ),
        "within_capacity": cache.capacity is None
        or bool((cache.occupancy <= cache.capacity).all()),
        "diagonal_empty": not bool(held.diagonal().any()),
    }
    report["ok"] = (
        report["live_matches_occupancy"]
        and report["stamped_iff_held"]
        and report["within_capacity"]
        and report["diagonal_empty"]
    )
    return report
