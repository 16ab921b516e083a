"""Logical overlay topologies: random, powerlaw and crawled.

Section IV-A uses three overlays over the physical network:

* ``random`` -- edges created uniformly at random, average degree 5;
* ``powerlaw`` -- same average degree, degrees following a power law with
  alpha = -0.74;
* ``crawled`` -- derived from a crawled Limewire topology with average
  degree 3.35.  The original crawl is not available, so we synthesise a
  Gnutella-like graph with that average degree and a heavy-tailed degree
  distribution (documented substitution; see DESIGN.md section 3).

All generators return an immutable :class:`OverlayTopology` -- overlay edge
list, adjacency arrays, and the mapping from overlay node to physical node
id (P2P nodes are drawn uniformly from the 51,984 physical nodes, as in the
paper).  Every generator forces the result connected by bridging components
with random edges, which perturbs the average degree by well under 1%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.network.transit_stub import TransitStubNetwork

__all__ = [
    "OverlayTopology",
    "build_topology",
    "crawled_topology",
    "powerlaw_topology",
    "random_topology",
    "powerlaw_degree_sequence",
]


@dataclass(frozen=True)
class OverlayTopology:
    """An immutable overlay graph plus its physical placement."""

    name: str
    n: int
    edges: np.ndarray  # (E, 2) int64 with u < v, no duplicates
    physical_ids: np.ndarray  # (n,) physical node id of each overlay node

    def __post_init__(self) -> None:
        if self.edges.ndim != 2 or (len(self.edges) and self.edges.shape[1] != 2):
            raise ValueError("edges must be an (E, 2) array")
        if len(self.physical_ids) != self.n:
            raise ValueError("physical_ids length must equal n")
        if len(self.edges):
            if self.edges.min() < 0 or self.edges.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(self.edges[:, 0] >= self.edges[:, 1]):
                raise ValueError("edges must be canonical (u < v)")
            keys = np.sort(self.edges[:, 0].astype(np.int64) * self.n + self.edges[:, 1])
            repeated = np.flatnonzero(keys[1:] == keys[:-1])
            if len(repeated):
                u, v = divmod(int(keys[repeated[0]]), self.n)
                raise ValueError(f"edge ({u}, {v}) appears more than once")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        if len(self.edges):
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg


# --------------------------------------------------------------------- utils
def _edge_set_to_array(edge_set: Set[Tuple[int, int]]) -> np.ndarray:
    if not edge_set:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.array(sorted(edge_set), dtype=np.int64)
    return arr


def _force_connected(
    n: int, edge_set: Set[Tuple[int, int]], rng: np.random.Generator
) -> None:
    """Bridge disconnected components with random edges (in place)."""
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = np.zeros(n, dtype=bool)
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(comp)
    for prev, nxt in zip(components, components[1:]):
        u = int(rng.choice(prev))
        v = int(rng.choice(nxt))
        edge_set.add((min(u, v), max(u, v)))


def _select_physical_ids(
    n: int, network: Optional[TransitStubNetwork], rng: np.random.Generator
) -> np.ndarray:
    """Place overlay nodes on random distinct physical nodes."""
    if network is None:
        return np.arange(n, dtype=np.int64)  # identity placement for unit tests
    if n > network.n_nodes:
        raise ValueError(
            f"cannot place {n} overlay nodes on {network.n_nodes} physical nodes"
        )
    return np.sort(rng.choice(network.n_nodes, size=n, replace=False)).astype(np.int64)


# ---------------------------------------------------------------- generators
def random_topology(
    n: int,
    avg_degree: float = 5.0,
    rng: Optional[np.random.Generator] = None,
    network: Optional[TransitStubNetwork] = None,
) -> OverlayTopology:
    """Uniformly random overlay with the given average degree (paper default 5)."""
    if n < 2:
        raise ValueError("need at least two overlay nodes")
    rng = rng if rng is not None else np.random.default_rng(0)
    target_edges = int(round(n * avg_degree / 2.0))
    max_edges = n * (n - 1) // 2
    if target_edges > max_edges:
        raise ValueError(f"average degree {avg_degree} too large for n={n}")
    edge_set: Set[Tuple[int, int]] = set()
    # Rejection-sample distinct pairs; vectorised in batches.
    while len(edge_set) < target_edges:
        need = target_edges - len(edge_set)
        us = rng.integers(0, n, size=2 * need + 16)
        vs = rng.integers(0, n, size=2 * need + 16)
        for u, v in zip(us, vs):
            if u == v:
                continue
            edge = (int(min(u, v)), int(max(u, v)))
            if edge not in edge_set:
                edge_set.add(edge)
                if len(edge_set) == target_edges:
                    break
    _force_connected(n, edge_set, rng)
    return OverlayTopology(
        name="random",
        n=n,
        edges=_edge_set_to_array(edge_set),
        physical_ids=_select_physical_ids(n, network, rng),
    )


def powerlaw_degree_sequence(
    n: int,
    avg_degree: float,
    exponent: float,
    rng: np.random.Generator,
    k_min: int = 1,
) -> np.ndarray:
    """Sample a degree sequence with P(k) ~ k**exponent matching ``avg_degree``.

    The cutoff ``k_max`` is found by search so the distribution mean equals
    the requested average degree; the sampled sequence is then nudged (by
    incrementing/decrementing random entries) so its sum is even and its
    empirical mean matches to within one edge.
    """
    if avg_degree <= k_min:
        raise ValueError(f"avg_degree must exceed k_min={k_min}")

    def mean_for(k_max: int) -> float:
        ks = np.arange(k_min, k_max + 1, dtype=np.float64)
        w = ks**exponent
        return float(np.sum(ks * w) / np.sum(w))

    k_max = k_min + 1
    while mean_for(k_max) < avg_degree:
        k_max += 1
        if k_max > 100 * int(avg_degree) + 1000:
            raise ValueError("could not calibrate power-law cutoff")
    ks = np.arange(k_min, k_max + 1, dtype=np.float64)
    w = ks**exponent
    pmf = w / w.sum()
    degrees = rng.choice(np.arange(k_min, k_max + 1), size=n, p=pmf).astype(np.int64)
    degrees = np.minimum(degrees, n - 1)
    # Nudge the sum toward the target (and make it even for pairing).
    target_sum = int(round(avg_degree * n))
    if target_sum % 2:
        target_sum += 1
    diff = target_sum - int(degrees.sum())
    step = 1 if diff > 0 else -1
    guard = 0
    while diff != 0 and guard < 100 * n:
        i = int(rng.integers(n))
        new = degrees[i] + step
        if k_min <= new <= n - 1:
            degrees[i] = new
            diff -= step
        guard += 1
    if degrees.sum() % 2:
        # Flip one degree by +/-1 to even the half-edge count.
        i = int(np.argmax(degrees < n - 1))
        degrees[i] += 1
    return degrees


def _configuration_model(
    degrees: np.ndarray, rng: np.random.Generator
) -> Set[Tuple[int, int]]:
    """Simple-graph configuration model: pair half-edges, drop loops/dupes."""
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    rng.shuffle(stubs)
    edge_set: Set[Tuple[int, int]] = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u == v:
            continue
        edge_set.add((min(u, v), max(u, v)))
    return edge_set


def powerlaw_topology(
    n: int,
    avg_degree: float = 5.0,
    exponent: float = -0.74,
    rng: Optional[np.random.Generator] = None,
    network: Optional[TransitStubNetwork] = None,
) -> OverlayTopology:
    """Power-law overlay with alpha = -0.74 and average degree 5 (paper)."""
    if n < 3:
        raise ValueError("need at least three overlay nodes")
    rng = rng if rng is not None else np.random.default_rng(0)
    degrees = powerlaw_degree_sequence(n, avg_degree, exponent, rng)
    edge_set = _configuration_model(degrees, rng)
    _force_connected(n, edge_set, rng)
    return OverlayTopology(
        name="powerlaw",
        n=n,
        edges=_edge_set_to_array(edge_set),
        physical_ids=_select_physical_ids(n, network, rng),
    )


def crawled_topology(
    n: int,
    avg_degree: float = 3.35,
    exponent: float = -1.4,
    rng: Optional[np.random.Generator] = None,
    network: Optional[TransitStubNetwork] = None,
) -> OverlayTopology:
    """Limewire-like overlay: sparse (avg degree 3.35), heavy-tailed degrees.

    The real crawl of [19] is unavailable; a steeper power-law exponent
    (-1.4) reproduces its qualitative shape -- a majority of leaf-ish
    low-degree peers plus a minority of well-connected ultrapeer-ish hubs.
    """
    if n < 3:
        raise ValueError("need at least three overlay nodes")
    rng = rng if rng is not None else np.random.default_rng(0)
    degrees = powerlaw_degree_sequence(n, avg_degree, exponent, rng)
    edge_set = _configuration_model(degrees, rng)
    _force_connected(n, edge_set, rng)
    return OverlayTopology(
        name="crawled",
        n=n,
        edges=_edge_set_to_array(edge_set),
        physical_ids=_select_physical_ids(n, network, rng),
    )


_BUILDERS: Dict[str, Callable[..., OverlayTopology]] = {
    "random": random_topology,
    "powerlaw": powerlaw_topology,
    "crawled": crawled_topology,
}


def build_topology(
    name: str,
    n: int,
    rng: Optional[np.random.Generator] = None,
    network: Optional[TransitStubNetwork] = None,
) -> OverlayTopology:
    """Build one of the paper's three overlays by name with paper defaults."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; choose from {sorted(_BUILDERS)}"
        ) from None
    return builder(n, rng=rng, network=network)
