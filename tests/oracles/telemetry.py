"""Telemetry oracle: the exact reductions as plain dict sums and sorts.

:class:`~repro.obs.telemetry.Telemetry` keeps every charge in column
tables and reduces them with numpy.  :class:`DictTelemetry` keeps a dict of
bytes per peer and per link, the same per window, and a list per
distribution, and answers what a summary document holds -- hot lists,
per-window top lists, digests and the attributed-peer count -- with
``sorted`` and a written-out nearest-rank index.
"""

import math
from typing import Any, Dict, List, Tuple

from repro.obs.telemetry import TOP_K, WINDOW_S

__all__ = ["DictTelemetry"]

#: The distributions a summary digests besides per-peer bytes.
VALUES = ("response_time_ms", "query_cost_bytes", "delivery_bytes")


def _top(totals: Dict[Any, float]) -> List[List[Any]]:
    """The ``TOP_K`` keys with positive bytes: bytes descending, then key
    ascending, as ``[*key, bytes]`` rows."""
    ranked = sorted(
        ((key, nbytes) for key, nbytes in totals.items() if nbytes > 0),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return [[*key, nbytes] for key, nbytes in ranked[:TOP_K]]


def _digest(values: List[float]) -> Dict[str, Any]:
    ordered = sorted(values)
    n = len(ordered)
    out: Dict[str, Any] = {
        "count": n,
        "total": float(sum(ordered)),
        "min": ordered[0] if n else None,
        "max": ordered[-1] if n else None,
    }
    for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        out[name] = ordered[max(1, math.ceil(q * n)) - 1] if n else None
    return out


class DictTelemetry:
    """Per-peer, per-link and per-window byte dicts, one list per value."""

    def __init__(self) -> None:
        self.peers: Dict[Tuple[int], float] = {}
        self.links: Dict[Tuple[int, int], float] = {}
        self.window_peers: Dict[int, Dict[Tuple[int], float]] = {}
        self.window_links: Dict[int, Dict[Tuple[int, int], float]] = {}
        self.values: Dict[str, List[float]] = {name: [] for name in VALUES}

    @staticmethod
    def _charge(run, by_window, t, key, nbytes) -> None:
        run[key] = run.get(key, 0.0) + nbytes
        if nbytes > 0:
            window = by_window.setdefault(int(t // WINDOW_S), {})
            window[key] = window.get(key, 0.0) + nbytes

    def peer(self, t: float, node: int, nbytes: float) -> None:
        self._charge(self.peers, self.window_peers, t, (int(node),), float(nbytes))

    def link(self, t: float, src: int, dst: int, nbytes: float) -> None:
        self._charge(
            self.links, self.window_links, t, (int(src), int(dst)), float(nbytes)
        )

    def value(self, name: str, value: float) -> None:
        self.values[name].append(float(value))

    # ---------------------------------------------------------------- answers
    def hot_peers(self) -> List[List[Any]]:
        return _top(self.peers)

    def hot_links(self) -> List[List[Any]]:
        return _top(self.links)

    def top_peers(self) -> Dict[str, List[List[Any]]]:
        """Window key (as in a document) -> that window's top peers."""
        return {str(w): _top(by_key) for w, by_key in self.window_peers.items()}

    def top_links(self) -> Dict[str, List[List[Any]]]:
        return {str(w): _top(by_key) for w, by_key in self.window_links.items()}

    def attributed_peers(self) -> int:
        return len(self.peers)

    def digests(self) -> Dict[str, Dict[str, Any]]:
        out = {name: _digest(values) for name, values in self.values.items()}
        out["per_peer_bytes"] = _digest(list(self.peers.values()))
        return out
