"""Serial vs parallel sweep wall-clock and substrate-cache effectiveness.

Runs the same four-cell sweep (one config per algorithm, shared seed, full
transit-stub substrate) at ``jobs = 1, 2, 4`` and records to
``benchmarks/results/parallel_scaling.txt``:

* wall-clock per jobs level and the speedup over serial;
* parent-side substrate cache hits/misses (serial reuses one build across
  all cells; parallel pre-warms one build that forked workers inherit);
* a bit-identity check: every jobs level must produce the same summaries.

Timing is recorded, not asserted -- CI machines and laptops differ in core
count, and on a single core parallel execution legitimately adds overhead.
The cache-hit counts and cross-jobs determinism *are* asserted.
"""

import os
import time

from conftest import write_result
from repro.experiments.parallel import run_cells
from repro.network.substrate import clear_substrate_cache, get_substrate
from repro.simulation import scaled_config

N_PEERS = 150
N_QUERIES = 150
ALGORITHMS = ("flooding", "random_walk", "gsa", "asap_rw")
JOB_LEVELS = (1, 2, 4)


def _sweep(jobs):
    configs = [
        scaled_config(algo, "random", n_peers=N_PEERS, n_queries=N_QUERIES)
        for algo in ALGORITHMS
    ]
    clear_substrate_cache()
    start = time.perf_counter()
    outcomes = run_cells(configs, jobs=jobs)
    wall_s = time.perf_counter() - start
    stats = get_substrate.cache_info()
    return {
        "jobs": jobs,
        "wall_s": wall_s,
        "hits": stats.hits,
        "misses": stats.misses,
        "summaries": [o.summarize() for o in outcomes],
    }


def bench_parallel_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: [_sweep(jobs) for jobs in JOB_LEVELS], rounds=1, iterations=1
    )
    serial = rows[0]
    lines = [
        "Parallel sweep scaling "
        f"({len(ALGORITHMS)} cells, {N_PEERS} peers, {N_QUERIES} queries, "
        f"{os.cpu_count()} cores)",
        f"{'jobs':>5} {'wall s':>8} {'speedup':>8} {'cache hit/miss':>15}",
    ]
    for row in rows:
        speedup = serial["wall_s"] / row["wall_s"] if row["wall_s"] else 0.0
        lines.append(
            f"{row['jobs']:>5} {row['wall_s']:>8.2f} {speedup:>7.2f}x "
            f"{row['hits']:>9}/{row['misses']}"
        )
    lines.append(
        "(parent-side cache counters; at jobs>1 the single parent build is "
        "inherited by forked workers)"
    )
    write_result(
        "parallel_scaling",
        "\n".join(lines),
        data={
            "rows": [
                {k: row[k] for k in ("jobs", "wall_s", "hits", "misses")}
                for row in rows
            ]
        },
    )

    # One substrate build serves the whole serial sweep ...
    assert serial["misses"] == 1
    assert serial["hits"] == len(ALGORITHMS) - 1
    # ... parallel sweeps pre-warm exactly one parent build ...
    for row in rows[1:]:
        assert row["misses"] == 1
    # ... and every jobs level is bit-identical to serial.
    for row in rows[1:]:
        assert row["summaries"] == serial["summaries"]
