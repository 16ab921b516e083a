"""Timed runs: cells replayed through the product entry point, observability off.

``timed_run`` is what ``run.py --trace 0`` executes: a fixed number of
iterations over the workload's cells, each cell one call of
``run_experiment(config, phase_times=...)`` plus ``RunResult.summarize()``.
Host-time metrics are medians over iterations of the wall-clock time with
the host's contention divided out (``SpeedProbe``); simulated statistics
are pooled over every query of every iteration; every outcome is checked.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import os
import statistics
import sys
import threading
import time
import traceback
from typing import Dict, List

from repro.network.substrate import clear_substrate_cache
from repro.obs.profile import peak_rss_mb
from repro.simulation.config import RunConfig
from repro.simulation.results import RunResult, RunSummary
from repro.simulation.runner import run_experiment

from workloads import Workload

__all__ = [
    "SpeedProbe",
    "cell_record",
    "combine_fingerprints",
    "fresh_iteration",
    "run_cell",
    "sim_fingerprint",
    "simulated_statistics",
    "timed_run",
]


class SpeedProbe:
    """How much slower than the quiet reference box this process is running.

    The box is shared and its speed drifts: the same cell measured 3.0 s in
    a quiet hour and 3.5-6.3 s in busy ones (CPU time tracking wall time),
    and ten runs' wall-clock medians then spread by up to 0.42 of their
    median (README.md, *Measured steadiness*).  So while the cells run, a
    thread times one small fixed piece of interpreter work every
    ``PERIOD_S``.  ``slowdown(start, end)`` is the median of those timings
    inside a window over ``REFERENCE_S``, and a phase's reported time is its
    wall-clock time divided by the slowdown of its own window: what it
    would have taken on the quiet box.  The probe shares no code with
    ``src/``, so a faster simulator is not normalised away; it costs the
    timed thread about 2%.
    """

    PERIOD_S = 0.02
    #: The probe's median on the reference box in a quiet hour, so that
    #: reported times equal wall-clock times there.
    REFERENCE_S = 112e-6

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._durations: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        # One CPU for both threads, so the probe sees the contention the
        # cells see and neither migrates mid-run.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        # List slices and dict look-ups over a few MB: of the mixes tried,
        # the one that tracked the cells' own slowdown best.
        clock = time.perf_counter
        keys = list(range(200_000))
        table = {k: k for k in range(0, 200_000, 7)}
        offset = 0
        while not self._stop.wait(self.PERIOD_S):
            offset = (offset + 7919) % 190_000
            start = clock()
            total = 0
            for key in keys[offset:offset + 3000:3]:
                total += table.get(key, 1)
            self._durations.append(clock() - start)
            self._starts.append(start)

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time in ``[start, end]`` over ``REFERENCE_S`` (call
        after the ``with`` block).  The window is widened by one sample on
        each side, so a phase shorter than the period still has two."""
        lo = max(bisect.bisect_left(self._starts, start) - 1, 0)
        hi = bisect.bisect_right(self._starts, end) + 1
        return statistics.median(self._durations[lo:hi]) / self.REFERENCE_S


def sim_fingerprint(result: RunResult) -> str:
    """blake2b over every outcome tuple and the ledger's category totals.

    Floats are hashed by ``float.hex`` so the digest depends on values, not
    on whether a path produced a Python or a NumPy scalar.
    """
    h = hashlib.blake2b(digest_size=16)
    for o in result.outcomes:
        h.update(
            (
                f"{int(o.success)},{float(o.response_time_ms).hex()},"
                f"{int(o.messages)},{float(o.cost_bytes).hex()},"
                f"{int(o.results)},{int(o.local_hit)};"
            ).encode()
        )
    totals = result.ledger.category_totals()
    for category in sorted(totals, key=lambda c: c.value):
        h.update(f"{category.value}={float(totals[category]).hex()};".encode())
    return h.hexdigest()


def combine_fingerprints(fingerprints: List[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for fp in fingerprints:
        h.update(fp.encode())
    return h.hexdigest()


def cell_record(
    config: RunConfig,
    result: RunResult,
    summary: RunSummary,
    started: float,
    setup_s: float,
    replay_s: float,
    cell_s: float,
) -> Dict[str, object]:
    """Reduce one finished cell to what the metrics and checks need.

    Failed operations: queries without an outcome (or with extra ones) and
    successful outcomes whose response time or result count is impossible.
    """
    outcomes = result.outcomes
    wins = [o for o in outcomes if o.success]
    bad = sum(
        1
        for o in wins
        if not math.isfinite(o.response_time_ms)
        or o.response_time_ms < 0
        or o.results < 1
    )
    expected = config.trace.n_queries
    return {
        "algorithm": config.algorithm,
        "seed": config.seed,
        "started": started,
        "setup_s": setup_s,
        "replay_s": replay_s,
        "cell_s": cell_s,
        "queries": len(outcomes),
        "successes": len(wins),
        "local_hits": sum(1 for o in outcomes if o.local_hit),
        "response_ms_sum": float(sum(o.response_time_ms for o in wins)),
        "messages_sum": int(sum(o.messages for o in outcomes)),
        "bytes_sum": float(sum(o.cost_bytes for o in outcomes)),
        "load_bpns": float(summary.load_mean_bpns),
        "fingerprint": sim_fingerprint(result),
        "attempted": expected + 1,  # every query, and the cell itself
        "failed": abs(len(outcomes) - expected) + bad,
    }


def run_cell(config: RunConfig) -> Dict[str, object]:
    """One untraced cell, timed the way a figure's user pays for it."""
    phase: Dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        result = run_experiment(config, phase_times=phase)
        summary = result.summarize()
    except Exception:  # a cell that raises fails all of its operations
        traceback.print_exc(file=sys.stderr)
        n = config.trace.n_queries + 1
        return {"algorithm": config.algorithm, "seed": config.seed,
                "attempted": n, "failed": n, "fingerprint": "raised"}
    cell_s = time.perf_counter() - t0
    return cell_record(
        config, result, summary, t0, phase["setup_s"], phase["replay_s"], cell_s
    )


def fresh_iteration() -> None:
    """Start an iteration the way a fresh process would: no cached substrate
    from the previous one and no garbage left to collect inside the timing."""
    clear_substrate_cache()
    gc.collect()


def simulated_statistics(cells: List[Dict[str, object]]) -> Dict[str, float]:
    """The paper's figures, pooled over the queries of ``cells``."""
    queries = sum(c["queries"] for c in cells)
    wins = sum(c["successes"] for c in cells)
    return {
        "success_rate": wins / queries,
        "response_ms": sum(c["response_ms_sum"] for c in cells) / max(wins, 1),
        "msgs_per_query": sum(c["messages_sum"] for c in cells) / queries,
        "search_bytes_per_query": sum(c["bytes_sum"] for c in cells) / queries,
        "load_bpns": statistics.fmean(c["load_bpns"] for c in cells),
    }


def timed_run(
    workload: Workload, seed: int, seconds: float, smoke: bool
) -> Dict[str, object]:
    """The ``--trace 0`` run: end-to-end metrics, checks, fingerprint."""
    n_iterations = workload.iterations(seconds, smoke)
    batches: List[List[Dict[str, object]]] = []
    with SpeedProbe() as probe:
        for iteration in range(n_iterations):
            fresh_iteration()
            batches.append(
                [run_cell(cfg) for cfg in workload.cells(seed, iteration, smoke)]
            )
    cells = [c for batch in batches for c in batch]
    # Per iteration, summed over its cells: the wall-clock time of each
    # phase as measured, and with its window's slowdown divided out.
    wall: Dict[str, List[float]] = {"setup_s": [], "replay_s": [], "cell_s": []}
    samples: Dict[str, List[float]] = {
        "setup_s": [], "replay_s": [], "cell_s": [], "queries_per_s": []
    }
    for batch in batches:
        if any("cell_s" not in c for c in batch):
            continue  # a cell raised: counted as failed, no time sample
        quiet = dict.fromkeys(wall, 0.0)
        for c in batch:
            replay_start = c["started"] + c["setup_s"]
            for key, start in (
                ("setup_s", c["started"]),
                ("replay_s", replay_start),
                ("cell_s", c["started"]),
            ):
                quiet[key] += c[key] / probe.slowdown(start, start + c[key])
        for key in wall:
            wall[key].append(sum(c[key] for c in batch))
            samples[key].append(quiet[key])
        samples["queries_per_s"].append(
            sum(c["queries"] for c in batch) / quiet["replay_s"]
        )
    finished = [c for c in cells if "cell_s" in c]
    metrics: Dict[str, float] = {}
    if samples["cell_s"]:
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics.update(simulated_statistics(finished))
    return {
        "workload": workload.name,
        "seed": seed,
        "iterations": n_iterations,
        "attempted": sum(c["attempted"] for c in cells),
        "failed": sum(c["failed"] for c in cells),
        "cell_fingerprints": [c["fingerprint"] for c in cells],
        "sim_fingerprint": combine_fingerprints([c["fingerprint"] for c in cells]),
        "metrics": metrics,
        "samples": samples,
        "wall_samples": wall,
        "host_slowdown": probe.slowdown(0.0, math.inf),
    }
