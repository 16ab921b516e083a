"""Vectorised walk kernels: batched stepping for walk-based delivery/search.

The paper's walk machinery -- ASAP(RW)/ASAP(GSA) ad dissemination with a
``|T(ad)| x 3,000`` message budget and the 5-walker / TTL-1024 random-walk
baseline -- executes tens of millions of walk steps per paper-scale run.
This module centralises that hot path so the per-step cost is paid once,
in optimised form, instead of once per call site.

Design (see docs/PERFORMANCE.md, "Walk kernels"):

* **Neighbour selection is an irreducible recurrence** -- the node at
  step ``t+1`` depends on the node at step ``t`` -- so only the *lane*
  axis vectorises: independent walkers advancing one step together.  A
  lockstep step is five array operations whatever the lane count, against
  ~0.2 us per lane-step of the *list recurrence* over the plain-list rows
  of the live CSR (:class:`WalkCsr`, carried across churn epochs), so
  which pays depends on how many lanes walk.  ASAP(RW) deliveries, one or
  many, are one kernel, :func:`rw_delivery_batch`: lockstep over
  :attr:`WalkCsr.lockstep` while at least ``LOCKSTEP_MIN_LANES`` lanes
  walk, the list recurrence (:func:`walk_block`) for the rest, so a lone
  delivery never steps five lanes wide.  :func:`rw_search` stops at its
  first hit, so it walks rounds of :func:`walk_block` only; GSA's loops
  (``GsaAdForwarder.deliver``, ``GsaSearch``) step the rows one step at a
  time, their walkers sharing one visited table.
* **Trajectories are bit-identical** on every path: ``int(u * deg)`` on
  the same IEEE values picks the edge, a lane reads its own draw row
  however a batch is composed, and elapsed time is a running sum along the
  steps (``np.cumsum`` adds strictly in order).
* **Everything after the recurrence is vectorised** once per round or
  block: :func:`arrival_seconds`, one ``bincount`` of per-second counts
  (:func:`second_counts` for a search) and :func:`receivers`.  A caller
  books the counts times its message size with one
  :meth:`~repro.sim.metrics.BandwidthLedger.add`.

Floods run over the same :class:`WalkCsr`.  A flooding *search* needs
arrival times, a min-plus relaxation (:func:`flood_frontier`) that runs
many sources at once as disjoint copies of the graph, up to
:func:`flood_pass_sources` of them, so ``FloodingSearch`` floods the
requesters of one churn epoch ahead in one pass.
An ASAP(FLD) *ad* flood needs only who it reaches and how many messages it
costs, both latency-free, so up to 64 of them share one bit-parallel BFS
(:func:`flood_words`): one ``uint64`` per node, bit ``j`` for source
``j``, one gather and one ``bitwise_or.reduceat`` per hop whatever the
number of sources; each delivery reads its own bit back with
:func:`flood_receivers`.

The kernels are pure functions over :class:`WalkCsr` + a draw matrix (or a
list of flood sources); all ledger writes stay in the callers, so the
per-step loops the differential tests compare against (``tests/oracles/``)
share the accounting code path.
"""

from __future__ import annotations

import math
from itertools import chain as chain_iter_
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

chain_iter = chain_iter_.from_iterable

__all__ = [
    "WalkCsr",
    "RwSearchResult",
    "arrival_seconds",
    "chain_nodes",
    "flood_frontier",
    "flood_receivers",
    "flood_words",
    "lockstep_fits",
    "receivers",
    "rw_delivery_batch",
    "rw_search",
    "second_counts",
    "walk_block",
]

#: First-chunk size for chunked walks (doubles every round).  Small at
#: first because searches over well-replicated content hit within a few
#: steps -- a large opening chunk would generate (and discard) far more
#: trajectory than the search ever charges; geometric growth keeps the
#: full-TTL miss case at O(log ttl) vectorisation rounds.
CHUNK_STEPS = 16


#: A previous epoch's ``(nbr, dgf, nbr_lat)`` rows and the mask of the rows
#: that churn may have changed since (see :meth:`WalkCsr.carry`).
_Rows = Tuple[List[List[int]], List[float], List[List[float]], np.ndarray]


class WalkCsr:
    """A live-CSR view prepared for the walk kernels.

    Wraps the ``(indptr, indices, latencies)`` arrays that
    :meth:`repro.network.overlay.Overlay.walk_csr` builds once per churn
    epoch (every kernel consumer -- walk and flood -- shares that
    instance) and derives two forms of them, each on first use, so an
    epoch pays only for what its readers index:

    * the **rows** of every Python-stepped walk: ``nbr[u]``, u's live
      neighbours as a plain list (one small-list index per step),
      ``nbr_lat[u]``, the latencies of those edges in the same order, and
      ``dgf[u]``, their count as a float (``u * dgf[node]`` is then the
      reference's ``u * deg`` -- Python converts the int to the same
      float, degrees being far below 2**53 -- without a ``len()`` per
      step);
    * the **array form** :attr:`lockstep` that :func:`walk_block` and the
      batch kernel gather from.

    A join or leave changes the rows of its node and of that node's
    topology neighbours, nothing else, so a new epoch's rows start from
    ``carried`` -- the last built rows and the mask of rows to rebuild
    (:meth:`carry`) -- and rebuild only those.  Without them (the first
    epoch, a CSR built by hand) every row is rebuilt: one build path.
    """

    __slots__ = (
        "indptr",
        "indices",
        "lats",
        "deg",
        "_nbr",
        "_dgf",
        "_nbr_lat",
        "_carried",
        "_lockstep",
        "n",
        "lats_positive",
        "__weakref__",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        lats: np.ndarray,
        carried: Optional[_Rows] = None,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.lats = lats
        self.deg: np.ndarray = np.diff(indptr)
        self.n = len(indptr) - 1
        self._nbr: Optional[List[List[int]]] = None
        self._dgf: Optional[List[float]] = None
        self._nbr_lat: Optional[List[List[float]]] = None
        self._carried = carried
        self._lockstep: Optional[Tuple[np.ndarray, ...]] = None
        # Positive latencies guarantee strictly increasing per-walker
        # arrival times, which the post-hoc search truncation relies on.
        self.lats_positive = bool(np.all(lats > 0.0)) if len(lats) else True

    def carry(self, touched: np.ndarray) -> Optional[_Rows]:
        """What the next epoch's rows start from, ``touched`` marking the
        rows churn changed since this epoch: this epoch's rows if they
        were built, else what this epoch would have started from (so the
        marks of epochs nobody walked add up); None if neither exists."""
        if self._nbr is not None:
            return self._nbr, self._dgf, self._nbr_lat, touched
        if self._carried is None:
            return None
        *rows, before = self._carried
        return *rows, before | touched

    def _build_rows(self) -> None:
        if self._carried is None:
            nbr, dgf, nbr_lat = [None] * self.n, [0.0] * self.n, [None] * self.n
            rebuild = np.arange(self.n)
        else:
            nbr, dgf, nbr_lat, touched = self._carried
            # The epoch they came from keeps its own.
            nbr, dgf, nbr_lat = nbr.copy(), dgf.copy(), nbr_lat.copy()
            rebuild = np.flatnonzero(touched)
        edges = _frontier_edges(self, rebuild)
        flat = [] if edges is None else self.indices[edges[0]].tolist()
        flat_lat = [] if edges is None else self.lats[edges[0]].tolist()
        lens = self.deg[rebuild]
        ends = np.cumsum(lens).tolist()
        for u, k, end in zip(rebuild.tolist(), lens.tolist(), ends):
            nbr[u] = flat[end - k : end]
            nbr_lat[u] = flat_lat[end - k : end]
            dgf[u] = float(k)
        self._nbr, self._dgf, self._nbr_lat = nbr, dgf, nbr_lat
        self._carried = None

    @property
    def lockstep(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(start, degf, nbr, lat)``: the CSR with an absorbing node ``n``.

        What :func:`walk_block` and :func:`rw_delivery_batch` gather from.
        Edge ``E`` (one past the live edges) leads to node ``n`` at zero
        latency, and every node without a live neighbour -- ``n``
        included -- has degree 0.0 and edge range starting at ``E``; so
        ``start[v] + int(u * degf[v])`` is the walk's own edge choice on a
        node that has neighbours, and parks a stranded lane on ``n`` for
        good without a branch in the step.
        """
        if self._lockstep is None:
            n, n_edges = self.n, len(self.indices)
            degf = np.zeros(n + 1)
            degf[:n] = self.deg
            start = np.full(n + 1, n_edges, dtype=np.int64)
            np.copyto(start[:n], self.indptr[:-1], where=self.deg > 0)
            self._lockstep = (
                start,
                degf,
                np.append(self.indices, n).astype(np.int64, copy=False),
                np.append(self.lats, 0.0),
            )
        return self._lockstep

    @property
    def nbr(self) -> List[List[int]]:
        if self._nbr is None:
            self._build_rows()
        return self._nbr

    @property
    def dgf(self) -> List[float]:
        if self._dgf is None:
            self._build_rows()
        return self._dgf

    @property
    def nbr_lat(self) -> List[List[float]]:
        if self._nbr_lat is None:
            self._build_rows()
        return self._nbr_lat


class Ahead(dict):
    """Work computed ahead on one :class:`WalkCsr`, by source.

    A kernel pass that computes an ad delivery or a search flood for one
    source can compute its companions' on the same epoch's CSR, and keeps
    them here.  :meth:`take` is the one way in: it returns the overlay's
    current CSR and pops ``source``'s entry, dropping every entry first
    when the CSR is new (a join or leave since they were computed).
    """

    csr: Optional[WalkCsr] = None

    def take(self, overlay, source: int) -> Tuple[WalkCsr, Optional[tuple]]:
        csr = overlay.walk_csr()
        if csr is not self.csr:
            self.csr = csr
            self.clear()
        return csr, self.pop(source, None)


def chain_nodes(
    csr: WalkCsr, node: int, row: List[float], out: List[int]
) -> Tuple[int, int]:
    """Walk one walker along ``row``'s uniforms, appending node ids to ``out``.

    Starts at ``node``; each uniform ``u`` selects live neighbour
    ``floor(u * degree)`` exactly as the reference loops do.  The careful
    form of :func:`walk_block`'s recurrence, for the rare walker that
    strands on a node with no live neighbours (the edge ids are recovered
    afterwards: the edge chosen at a step is a pure function of the
    step's start node and uniform).  Returns ``(steps_taken, final_node)``.
    """
    nbr = csr.nbr
    append = out.append
    before = len(out)
    for u in row:
        lst = nbr[node]
        d = len(lst)
        if not d:
            break
        node = lst[int(u * d)]
        append(node)
    return len(out) - before, node


def walk_block(
    csr: WalkCsr, origins: Sequence[int], draws: np.ndarray, elapsed
) -> Tuple[np.ndarray, np.ndarray]:
    """One round of single walks, stepped by lane and post-processed as a block.

    Lane ``i`` starts at node ``origins[i]`` at ``elapsed`` ms (a scalar
    or one value per lane) and walks row ``i`` of the ``(lanes, width)``
    uniforms ``draws``.  Returns ``(nodes, arrivals)``, both ``(lanes,
    width)``: the node each step lands on and its arrival in ms.

    The recurrence runs per lane as a list comprehension over
    :attr:`WalkCsr.nbr` (its loop runs in C, leaving the index arithmetic
    in Python; an empty neighbour list raises IndexError -- ``int(u *
    0.0) == 0`` -- so a walker that strands is recomputed by
    :func:`chain_nodes` and padded with the absorbing node ``n``).
    Everything after it is one pass over the block: the edge of each step
    is ``start[prev] + int(u * degf[prev])`` gathered from
    :attr:`WalkCsr.lockstep` -- the IEEE multiply and truncation of the
    step itself, and the zero-latency edge into ``n`` on a padded step --
    then ``elapsed`` is folded into column 0 and ``np.cumsum(axis=1)``
    adds strictly left to right per row: the reference loops' own
    ``elapsed += lat``.  A padded step arrives at ``inf``, so it is no
    message, no arrival and, node ``n`` being past every real node, no
    receiver.
    """
    nbr, dgf, n = csr.nbr, csr.dgf, csr.n
    lanes, width = draws.shape
    chains: List[List[int]] = []
    stranded = False
    for node, row in zip(origins, draws.tolist()):
        origin = node
        try:
            chains.append([node := nbr[node][int(u * dgf[node])] for u in row])
        except IndexError:
            chain: List[int] = []
            chain_nodes(csr, origin, row, chain)
            chains.append(chain + [n] * (width - len(chain)))
            stranded = True
    nodes = np.fromiter(chain_iter(chains), np.int64, lanes * width)
    nodes = nodes.reshape(lanes, width)
    prev = np.empty_like(nodes)
    prev[:, 0] = origins
    prev[:, 1:] = nodes[:, :-1]
    start, degf, _, lat = csr.lockstep
    steps = lat[start[prev] + (draws * degf[prev]).astype(np.int64)]
    steps[:, 0] += elapsed
    arrivals = np.cumsum(steps, axis=1)
    if stranded:
        arrivals[nodes == n] = math.inf
    return nodes, arrivals


def arrival_seconds(now, elapsed_ms: np.ndarray, out=None) -> np.ndarray:
    """Ledger second of every arrival: ``int(now + e / 1000)``, truncated.

    ``now`` is a scalar or broadcasts against ``elapsed_ms`` (one start
    time per lane); the float operations are the per-step loops' own.
    """
    seconds = np.divide(elapsed_ms, 1000.0, out=out)
    np.add(now, seconds, out=seconds)
    return seconds.astype(np.int64)


def second_counts(seconds, messages=None) -> Tuple[int, np.ndarray]:
    """``(first, counts)``: ``counts[i]`` messages landed in second
    ``first + i``, one at each of ``seconds`` (``messages[j]`` at
    ``seconds[j]`` when given); ``(0, [])`` when there are none."""
    seconds = np.asarray(seconds, dtype=np.int64)
    if not len(seconds):
        return 0, np.zeros(0, dtype=np.int64)
    first = int(seconds.min())
    return first, np.bincount(seconds - first, weights=messages)


def receivers(seen: np.ndarray, sources: Sequence[int]) -> List[np.ndarray]:
    """Per row of ``seen`` -- one flag or visit count per node, a row per
    delivery -- the ascending ids of the nodes marked, that row's source
    dropped (a walk that returns home delivers nothing there).

    ``seen`` is cleared at the sources; one pass finds every row's ids.
    """
    n_rows, width = seen.shape
    seen[np.arange(n_rows), sources] = 0
    rows, nodes = np.divmod(np.flatnonzero(seen), width)
    return np.split(nodes, np.cumsum(np.bincount(rows, minlength=n_rows))[:-1])


# --------------------------------------------------------------- delivery
#: Working-set budget of one lockstep chunk, in bytes: 8 per draw plus one
#: visited flag per (ad, node).  Everything else the batch kernel touches
#: is sized by ``LOCKSTEP_BLOCK``.  A constant, not a knob: larger chunks
#: buy lanes (a step costs about the same however few lanes it advances)
#: only with resident memory, and peak RSS is gated (docs/PERFORMANCE.md,
#: "A bounded working set").
LOCKSTEP_CHUNK_BYTES = 4 << 20
#: Lane-steps advanced between two post-processing passes (a block is
#: ``max(1, LOCKSTEP_BLOCK // lanes)`` steps of every lane still walking).
LOCKSTEP_BLOCK = 1 << 15
#: Fewer lanes than this still walking, and a batch finishes them lane by
#: lane with :func:`walk_block`'s list recurrence: a lockstep step costs
#: about the same whatever its lane count, so below this many lanes the
#: recurrence's ~0.2 us per lane-step is cheaper.  A 1-ad batch of the
#: paper's 5 walkers never steps in lockstep at all.
LOCKSTEP_MIN_LANES = 20


def lockstep_fits(n_ads: int, total_draws: int, n: int) -> bool:
    """Whether ``n_ads`` ads drawing ``total_draws`` uniforms fit a chunk."""
    return 8 * total_draws + n_ads * (n + 1) <= LOCKSTEP_CHUNK_BYTES


def rw_delivery_batch(
    csr: WalkCsr,
    sources: Sequence[int],
    per_walker: Sequence[int],
    walkers: int,
    draws: np.ndarray,
    nows: Sequence[float],
) -> List[Tuple[np.ndarray, int, int, np.ndarray]]:
    """ASAP(RW) deliveries on one ``csr``: every walker walks its draw row.

    Ad ``a`` starts ``walkers`` walkers at ``sources[a]`` at time
    ``nows[a]``, each taking ``per_walker[a]`` steps; ``draws`` is the
    flat concatenation of the ads' ``(walkers, per_walker[a])`` uniform
    blocks in ad order.  Returns per ad ``(receivers, n_messages,
    first_second, counts)``: the distinct nodes stepped onto but the
    source, ascending; every step; and ``counts[i]`` steps arriving in
    ledger second ``first_second + i`` (empty for an ad that never
    stepped, else first and last entries nonzero).  An ad's result depends on its own
    source, draws and start time only, never on what shares its batch.

    Every (ad, walker) pair is a lane, lanes ordered longest first so the
    ones still walking are a prefix.  :func:`_lockstep` steps them together
    while enough walk; the rest finish as :func:`walk_block` rows, one per
    remaining length.  Visited nodes go into one flag per (ad, node) and
    arrivals into one count per (ad, second), block by block, so only
    ``(node, elapsed)`` per lane is carried.  A stranded lane parks on
    :attr:`WalkCsr.lockstep`'s absorbing node, its later steps voided.
    """
    n_ads = len(sources)
    if not n_ads:
        return []
    n = csr.n
    sources = np.asarray(sources, dtype=np.int64)
    per_walker = np.asarray(per_walker, dtype=np.int64)
    nows = np.asarray(nows, dtype=np.float64)

    order = np.argsort(-per_walker, kind="stable")
    lens = np.repeat(per_walker[order], walkers)
    first = np.cumsum(walkers * per_walker) - walkers * per_walker
    # Lane (a, w) reads draws[first[a] + w * per_walker[a] + step].
    pos = np.repeat(first[order], walkers) + lens * np.tile(
        np.arange(walkers), n_ads
    )
    lane_ad = np.repeat(order, walkers)
    lane_now = np.repeat(nows[order], walkers)
    lane_seen = lane_ad * (n + 1)
    node = np.repeat(sources[order], walkers)
    elapsed = np.zeros(len(node))

    seen = np.zeros((n_ads, n + 1), dtype=bool)
    seen_flat = seen.reshape(-1)
    base = int(nows.min())
    counts = np.zeros((n_ads, 64), dtype=np.int64)

    def tally(v, e, lanes, key, parked):
        """Flag the nodes ``v`` the ``lanes`` stepped onto and count their
        arrivals ``e`` per (ad, second); ``key`` is scratch of ``v``'s
        shape, ``e`` is overwritten."""
        nonlocal counts
        np.add(v, lane_seen[lanes], out=key)
        seen_flat[key] = True
        secs = arrival_seconds(lane_now[lanes], e, out=e)
        span = int(secs.max()) - base + 1
        if span > counts.shape[1]:
            grown = np.zeros((n_ads, 2 * span), dtype=np.int64)
            grown[:, : counts.shape[1]] = counts
            counts = grown
        np.add(secs, lane_ad[lanes] * counts.shape[1] - base, out=key)
        if parked:  # some lane is parked: void its steps
            key[v == n] = counts.size
        counts += np.bincount(key.reshape(-1), minlength=counts.size + 1)[
            :-1
        ].reshape(counts.shape)

    step = 0
    if len(lens) >= LOCKSTEP_MIN_LANES:
        step = _lockstep(csr, lens, pos, node, elapsed, draws, walkers, tally)

    # The lanes still walking, parked ones aside, by remaining length.
    tails: Dict[int, List[int]] = {}
    for lane, width in enumerate(np.where(node == n, 0, lens - step).tolist()):
        if width > 0:
            tails.setdefault(width, []).append(lane)
    for width, lanes in tails.items():
        tail = np.array(lanes)
        rows = draws[pos[tail, None] + _arange(width)]
        v, e = walk_block(csr, node[tail].tolist(), rows, elapsed[tail])
        parked = bool(v[:, -1].max() == n)
        if parked:
            e[v == n] = 0.0  # walk_block's inf: no arrival to count
        tally(v, e, tail[:, None], np.empty_like(v), parked)

    seen[:, n] = False  # the absorbing node is nobody
    got = receivers(seen, sources)
    steps = counts.sum(axis=1).tolist()
    # Each ad keeps a copy of its seconds with arrivals, not a view that
    # would hold the batch's count matrix alive.
    hit = counts != 0
    lo = hit.argmax(axis=1).tolist()
    hi = np.where(hit.any(axis=1), hit.shape[1] - hit[:, ::-1].argmax(axis=1), 0)
    return [
        (got[a], steps[a], base + lo[a], counts[a, lo[a] : end].copy())
        for a, end in enumerate(hi.tolist())
    ]


def _lockstep(csr, lens, pos, node, elapsed, draws, walkers, tally) -> int:
    """Step :func:`rw_delivery_batch`'s lanes together while at least
    ``LOCKSTEP_MIN_LANES`` walk, ``tally``-ing each block; ``pos``,
    ``node`` and ``elapsed`` are carried in place.  Returns the steps
    taken.

    A step is five array operations: gather the lanes' degrees,
    ``int(u * deg)`` (the multiply's float cast to int on output), gather
    their edge-range starts, add, gather the chosen edges' heads.  The
    block's latencies are gathered once afterwards by the edges it chose,
    the lanes' elapsed time folded into its first row and summed down the
    steps -- ``cumsum`` along an axis adds strictly in order, the floats
    of :func:`walk_block`'s row ``cumsum``.
    """
    start, degf, nbr, lat = csr.lockstep
    lanes_n = len(node)
    cells = max(LOCKSTEP_BLOCK, lanes_n)
    u_buf, e_buf = np.empty(cells), np.empty(cells)
    v_buf, key_buf = np.empty(cells, np.int64), np.empty(cells, np.int64)
    edge_buf = np.empty(cells, np.int64)
    deg_k, pick_k = np.empty(lanes_n), np.empty(lanes_n, np.int64)
    start_k = np.empty(lanes_n, np.int64)
    ramp = _arange(max(1, LOCKSTEP_BLOCK // walkers))[:, None]
    step = 0
    for stop in np.unique(lens).tolist():
        k = int(np.count_nonzero(lens >= stop))
        if k < LOCKSTEP_MIN_LANES:
            break
        d, j, s = deg_k[:k], pick_k[:k], start_k[:k]
        lanes = _arange(k)
        while step < stop:
            b = min(max(1, LOCKSTEP_BLOCK // k), stop - step)
            u = u_buf[: b * k].reshape(b, k)
            e = e_buf[: b * k].reshape(b, k)
            v = v_buf[: b * k].reshape(b, k)
            edge = edge_buf[: b * k].reshape(b, k)
            key = key_buf[: b * k].reshape(b, k)
            np.add(pos[:k], ramp[:b], out=key)
            draws.take(key, out=u, mode="clip")
            pos[:k] += b
            cur = node[:k]
            for i in range(b):
                degf.take(cur, out=d, mode="clip")
                np.multiply(u[i], d, out=j, casting="unsafe")  # truncates
                start.take(cur, out=s, mode="clip")
                np.add(j, s, out=edge[i])
                cur = nbr.take(edge[i], out=v[i], mode="clip")
            lat.take(edge, out=e, mode="clip")
            e[0] += elapsed[:k]
            np.cumsum(e, axis=0, out=e)
            node[:k] = cur
            elapsed[:k] = e[-1]
            step += b
            tally(v, e, lanes, key, cur.max() == csr.n)
    return step


# ----------------------------------------------------------------- search
class RwSearchResult(NamedTuple):
    """Outcome of one kernel-run k-walker search: ``counts[i]`` of the
    steps it is charged for arrived in second ``first_second + i``."""

    first_second: int
    counts: np.ndarray
    hit_time_ms: Optional[float]
    hit_node: Optional[int]


def rw_search(
    csr: WalkCsr,
    start: int,
    draws: np.ndarray,
    match: np.ndarray,
    now: float,
) -> RwSearchResult:
    """k-walker random-walk search with checking termination, vectorised.

    Requires ``csr.lats_positive`` (callers fall back to the reference
    heap loop otherwise).  Trajectories are computed in geometrically
    growing chunks (``CHUNK_STEPS``, then doubling): early hits waste at
    most one chunk's worth of steps per walker, while a full-TTL miss
    pays the per-round overhead only ``O(log(ttl))`` times.  A round is
    one :func:`walk_block` of the walkers still walking; its arrivals
    land in one ``(walkers, ttl)`` array (``inf`` where not stepped) and
    its hits come from one ``match`` gather.  Walkers that stranded, or
    whose elapsed time has passed the best known hit, are retired at
    round boundaries.  The heap semantics of the reference implementation
    are recovered post hoc (see docs/PERFORMANCE.md for the proof sketch):

    * with strictly positive latencies, the final hit time equals the
      minimum match arrival over the walkers' *full* trajectories;
    * a step is charged iff its start time (the previous arrival) is
      strictly before the hit time: ``min(taken, count(arrival < hit) +
      1)`` steps per walker, arrivals being strictly increasing;
    * among simultaneous earliest matches, the winner is the event with
      the lexicographically smallest ``(start_time, walker)`` -- exactly
      the first one the reference heap would process.
    """
    walkers, ttl = draws.shape
    match = np.append(match, False)  # the absorbing node never matches
    arrivals = np.full((walkers, ttl), math.inf)
    lanes = np.arange(walkers if csr.dgf[start] else 0)
    at, ends = [start] * walkers, 0.0
    hit_time = math.inf
    hits: List[Tuple[int, int, int]] = []  # (walker, step, node) on a match

    t0, chunk = 0, CHUNK_STEPS
    while t0 < ttl and len(lanes):
        t1 = min(ttl, t0 + chunk)
        nodes, arr = walk_block(csr, at, draws[lanes, t0:t1], ends)
        arrivals[lanes, t0:t1] = arr
        rows, cols = np.nonzero(match[nodes])
        if len(rows):
            hit_time = min(hit_time, float(arr[rows, cols].min()))
            hits += zip(
                lanes[rows].tolist(), (cols + t0).tolist(), nodes[rows, cols].tolist()
            )
        # A stranded walker ends at inf; one that has reached the hit
        # would start every further step too late.
        keep = arr[:, -1] < hit_time
        lanes, at, ends = lanes[keep], nodes[keep, -1].tolist(), arr[keep, -1]
        t0, chunk = t1, 2 * chunk

    stepped = arrivals[:, :t0]
    charged = np.minimum(
        np.count_nonzero(stepped < math.inf, axis=1),
        np.count_nonzero(stepped < hit_time, axis=1) + 1,
    )
    cells = stepped[np.arange(t0) < charged[:, None]]
    first, counts = second_counts(arrival_seconds(now, cells))
    if not hits:
        return RwSearchResult(first, counts, None, None)
    _, _, node = min(
        (arrivals[w, t - 1] if t else 0.0, w, node)
        for w, t, node in hits
        if arrivals[w, t] == hit_time
    )
    return RwSearchResult(first, counts, hit_time, node)


# ------------------------------------------------------------------ flooding
_ARANGE = np.empty(0, dtype=np.int64)


def _arange(total: int) -> np.ndarray:
    """A read-only ``arange(total)`` view over a growing module cache.

    Every flood hop needs a fresh ramp only as an addend (the sum
    allocates its own output), so one shared buffer serves them all.
    """
    global _ARANGE
    if total > len(_ARANGE):
        _ARANGE = np.arange(max(total, 2 * len(_ARANGE)), dtype=np.int64)
    return _ARANGE[:total]


def _frontier_edges(
    csr: WalkCsr, frontier: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(edge_ids, lens)`` for every out-edge of the ``frontier`` nodes.

    ``repeat(starts - offsets, lens) + arange(total)`` lays each node's
    contiguous CSR edge range end to end -- one vectorised pass instead of
    a per-node slice loop.  ``lens`` (the frontier out-degrees) rides along
    so callers don't re-gather it.  Returns None when the frontier has no
    edges.
    """
    lens = csr.deg[frontier]
    total = int(lens.sum())
    if not total:
        return None
    offsets = np.cumsum(lens)
    offsets -= lens
    eids = np.repeat(csr.indptr[frontier] - offsets, lens)
    eids += _arange(total)
    return eids, lens


#: Working-set budget of one :func:`flood_frontier` pass, in bytes.  A
#: constant, not a knob, like ``LOCKSTEP_CHUNK_BYTES``: more sources per
#: pass buy fewer passes only with resident memory, and peak RSS is gated.
FLOOD_PASS_BYTES = 2 << 20


def flood_pass_sources(csr: WalkCsr) -> int:
    """How many sources one :func:`flood_frontier` pass over ``csr`` takes
    within ``FLOOD_PASS_BYTES``: a power of two (a pass pads its sources
    to one), at least one.  A source costs 24 bytes a node -- its arrival
    and first-hop rows and the changed-node scan's copy -- and, on a round
    that relaxes every live edge, 24 bytes an edge: the round's edge ids,
    candidates and targets."""
    fits = FLOOD_PASS_BYTES // (24 * (csr.n + len(csr.indices)))
    return 1 << max(0, int(fits).bit_length() - 1)


def flood_frontier(
    csr: WalkCsr, sources: Sequence[int], ttl: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The TTL-bounded floods of ``sources``: ``(first_hop, arrival_ms,
    n_messages)``, row ``i`` of each the flood of ``sources[i]``.

    ``first_hop`` (int64) and ``arrival_ms`` are ``(S, n)``: the hop of a
    node's first reception (-1 unreached, 0 the source) and its earliest
    arrival over paths of at most ``ttl`` hops (inf unreached);
    ``n_messages`` (``(S,)``, int64) counts each flood's transmissions.
    A pass relaxes ``S`` disjoint copies of the graph at once -- copy ``i``
    of node ``v`` is flat index ``v << k | i``, ``2**k >= S``, so a node's
    copies share cache lines and a shift splits an index -- and every row
    is its own flood whatever shares the pass; one source is the pass with
    ``S = 1``.  The rows are views of one ``(n, 2**k)`` block.

    Bit-identical to the reference hop-bounded Bellman-Ford that relaxes
    *every* live edge each round (``np.minimum.at`` over the full edge
    arrays): if a node's arrival did not change in round ``h-1``, every
    candidate ``arrival[u] + lat`` it can offer was already applied in an
    earlier round, so restricting round ``h`` to the out-edges of changed
    nodes removes only candidates that cannot lower any minimum.  Each
    candidate is the same single IEEE addition as the reference's, and
    ``min`` over floats is exact, so the arrival rows match bit for bit.

    ``n_messages`` is ``deg(source) + sum over nodes first reached at hop
    < ttl of (deg - 1)``: the source sends to every live neighbour, a
    forwarder to all but the one it heard from first.  A flood that dies
    out below its TTL thereby counts its last arrivals' forwards too.
    """
    n, n_rows = csr.n, len(sources)
    k = (n_rows - 1).bit_length()
    width = 1 << k
    size = n * width
    arrival = np.full(size, np.inf)
    first_hop = np.full(size, -1, dtype=np.int64)
    nodes = np.asarray(sources, dtype=np.int64)
    copies = np.arange(n_rows, dtype=np.int64)
    frontier = nodes << k | copies
    arrival[frontier] = 0.0
    first_hop[frontier] = 0
    # One source has one copy of the graph: its ids need no shift or copy
    # bits, and skipping them keeps a one-source pass as cheap as a
    # single-source flood.
    shifted = csr.indices << k if k else csr.indices
    forwarders = []  # flat ids first reached below the TTL
    for h in range(1, ttl + 1):
        fe = _frontier_edges(csr, nodes)
        if fe is None:
            break
        eids, lens = fe
        relaxed = csr.lats[eids]
        relaxed += np.repeat(arrival[frontier], lens)
        targets = shifted[eids]
        if k:
            targets |= np.repeat(copies, lens)
        # Only the relaxed targets can change, so when they are few the
        # changed-node scan restricts to them (``unique`` yields the same
        # sorted ids the full-array ``nonzero`` would); past a sixty-fourth
        # of the pass, sorting them costs more than scanning the dense
        # arrays.  Both branches produce identical ``changed`` arrays.
        if len(targets) * 64 < size:
            uniq = np.unique(targets)
            old_t = arrival[uniq]
            np.minimum.at(arrival, targets, relaxed)
            changed = uniq[arrival[uniq] < old_t]
        else:
            old = arrival.copy()
            np.minimum.at(arrival, targets, relaxed)
            changed = np.flatnonzero(arrival < old)
        if not len(changed):
            break
        newly = changed[first_hop[changed] < 0]
        first_hop[newly] = h
        if h < ttl:
            forwarders.append(newly)
        frontier = nodes = changed
        if k:
            nodes, copies = changed >> k, changed & (width - 1)
    n_messages = csr.deg[sources].astype(np.int64)
    if forwarders:
        fwd = np.concatenate(forwarders)
        n_messages += np.bincount(
            fwd & (width - 1), weights=csr.deg[fwd >> k] - 1, minlength=n_rows
        ).astype(np.int64)
    return (
        first_hop.reshape(n, width).T[:n_rows],
        arrival.reshape(n, width).T[:n_rows],
        n_messages,
    )


#: Floods per :func:`flood_words` pass: one bit of a ``uint64`` per source.
WORD_BITS = 64


def flood_words(csr: WalkCsr, sources: Sequence[int], ttl: int) -> np.ndarray:
    """The TTL-bounded floods of up to 64 distinct ``sources``, as bits.

    Returns a ``(2, n)`` array of little-endian ``uint64`` words: bit ``j``
    of ``words[0][v]`` is set when ``sources[j]``'s flood reached ``v``
    within ``ttl`` hops, bit ``j`` of ``words[1][v]`` when it did within
    ``ttl - 1`` hops -- the nodes that forward it.  A source reaches
    itself at hop 0.  :func:`flood_receivers` reads one flood back out.

    One hop is a pull over the symmetric live CSR: the frontier words
    gathered over ``csr.indices``, OR-ed per row by one
    ``np.bitwise_or.reduceat`` over the rows that have live neighbours (a
    node without any is never in ``indices``), minus what each flood has
    already reached.  Hop counts are latency-free, so every source's
    word is its own BFS whatever else shares the pass; a single flood is
    the same pass with one bit set.  A pass whose frontier empties stops
    early: the floods have died out, and the forwarders are everything
    reached.
    """
    if not 1 <= len(sources) <= WORD_BITS:
        raise ValueError(f"a pass floods 1 to {WORD_BITS} sources, got {len(sources)}")
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    frontier = np.zeros(csr.n, dtype="<u8")
    bits = np.left_shift(np.uint64(1), np.arange(len(sources), dtype=np.uint64))
    frontier[sources] = bits
    unreached = ~frontier
    rows = np.flatnonzero(csr.deg)
    starts = csr.indptr[rows]
    gathered = np.empty(len(csr.indices), dtype="<u8")
    words = np.empty((2, csr.n), dtype="<u8")
    for hop in range(1, ttl + 1):
        if hop == ttl:
            np.invert(unreached, out=words[1])
        frontier.take(csr.indices, out=gathered)
        frontier[rows] = np.bitwise_or.reduceat(gathered, starts)
        frontier &= unreached
        if not frontier.any():
            break
        unreached ^= frontier
    np.invert(unreached, out=words[0])
    if hop < ttl:
        words[1] = words[0]
    return words


def flood_receivers(
    csr: WalkCsr, words: np.ndarray, bit: int, source: int
) -> Tuple[np.ndarray, int]:
    """Flood ``bit`` of a :func:`flood_words` pass: ``(receivers,
    n_messages)``.

    ``receivers`` are the ascending ids the flood reached, ``source``
    dropped; ``n_messages`` is ``deg(source) + sum(deg - 1)`` over the
    receivers that forward (reached within ``ttl - 1`` hops): the source
    sends to every live neighbour, a forwarder to all but the one it heard
    from first.  Two passes over ``n`` -- the bit's byte column tested
    into a flag per node, then its nonzero -- and a gather over the
    receivers; never a ``(n, 64)`` expansion.
    """
    byte, flag = bit >> 3, np.uint8(1 << (bit & 7))
    column = words.view(np.uint8)[:, byte::8]  # the byte holding the bit
    hit = np.bitwise_and(
        column[0], flag, out=np.empty(csr.n, dtype=bool), casting="unsafe"
    )
    hit[source] = False
    got = hit.nonzero()[0]
    fwd = csr.deg[got[column[1].take(got) & flag != 0]]
    return got, int(csr.deg[source]) + int(fwd.sum()) - len(fwd)
