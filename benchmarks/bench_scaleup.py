"""Scale-up bench: wall-clock and peak RSS at the paper's 10,000 peers.

ASAP's ads caches are one dense peer x source state
(``repro.asap.state``, 8 bytes per pair unbounded, Theta(n^2) whatever the
cache capacity: 0.8 GB at 10,000 peers), so the largest supported cell is
the one whose state fits the 8 GB bar below (~32k peers; larger ASAP cells
are refused up front with a ``ValueError`` naming the bytes).  Each
(algorithm, n_peers) cell runs in a **fresh subprocess** so its peak RSS
(``repro.obs.profile.peak_rss_mb``) is that cell's own high-water mark,
not the session's, and measures

* end-to-end wall-clock, and the set-up and replay phases alone (the
  state's pages are committed when it is built, so judge a cell by wall),
* peak RSS (MB),
* ads-state size (cached pairs, dense state bytes) for ASAP cells.

Configuration is deliberately *not* the proportional scale-down of
``scaled_config``: the paper's delivery budget unit M0 = 3000 is pinned
at every size (the paper itself fixes M0 against system size, Section
IV-A), and the physical-network substrate is off (its all-pairs state is
O(N^2) and orthogonal to peer-state memory).

Results go to ``benchmarks/results/scaleup.json`` (the schema-versioned
envelope) and, when recording is on, append to ``BENCH_SCALEUP.json`` at
the repo root -- the committed trajectory the perf-regression gate
(``check_perf_regression.py --scaleup-result ...``) compares against.

Scale control (environment variables):

* ``REPRO_BENCH_SCALEUP_SIZES``   -- comma list (default ``10000``; CI
  smoke passes something smaller)
* ``REPRO_BENCH_SCALEUP_ALGOS``   -- comma list (default
  ``flooding,asap_rw``; ASAP(RW) is the paper's headline scheme and the
  cache-heaviest of the budget-walk forwarders)
* ``REPRO_BENCH_SCALEUP_QUERIES`` -- queries per cell (default
  ``max(200, n_peers // 50)``)
* ``REPRO_BENCH_SCALEUP_MAX_RSS_GB`` -- per-cell peak-RSS bar
  (default 8.0)
* ``REPRO_BENCH_SCALEUP_SEED``    -- root seed (default 0)
* ``REPRO_BENCH_SCALEUP_RECORD``  -- 0 skips the trajectory append
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import BENCH_SCHEMA_VERSION, write_result

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SCALEUP_SIZES", "10000").split(",")
    if s
]
ALGOS = [
    a
    for a in os.environ.get(
        "REPRO_BENCH_SCALEUP_ALGOS", "flooding,asap_rw"
    ).split(",")
    if a
]
SEED = int(os.environ.get("REPRO_BENCH_SCALEUP_SEED", "0"))
MAX_RSS_GB = float(os.environ.get("REPRO_BENCH_SCALEUP_MAX_RSS_GB", "8.0"))
RECORD = os.environ.get("REPRO_BENCH_SCALEUP_RECORD", "1") != "0"
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_SCALEUP.json"
TRAJECTORY_KEEP = 20


def _queries(n_peers: int) -> int:
    override = os.environ.get("REPRO_BENCH_SCALEUP_QUERIES")
    if override:
        return int(override)
    return max(200, n_peers // 50)


def _run_cell(algorithm: str, n_peers: int) -> dict:
    """One cell in a fresh interpreter; returns its JSON measurement."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--cell",
            algorithm,
            str(n_peers),
            str(_queries(n_peers)),
            str(SEED),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{algorithm}/{n_peers} cell failed:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _cell_main(algorithm: str, n_peers: int, n_queries: int, seed: int) -> None:
    """Subprocess body: run the cell, print one JSON line."""
    import dataclasses

    from repro.obs.profile import peak_rss_mb
    from repro.simulation.config import scaled_config
    from repro.simulation.runner import run_experiment

    config = scaled_config(
        algorithm,
        "random",
        n_peers=n_peers,
        n_queries=n_queries,
        seed=seed,
        use_physical_network=False,
    )
    # Pin the paper's budget unit: M0 is calibrated against content
    # popularity, not system size (Section IV-A) -- the proportional
    # scale-down exists for small differential cells, not scale-up.
    config = dataclasses.replace(
        config,
        asap=dataclasses.replace(config.asap, budget_unit=3000),
    )
    phase_times: dict = {}
    t0 = time.perf_counter()
    result = run_experiment(config, profile=True, phase_times=phase_times)
    wall_s = time.perf_counter() - t0
    profile = result.profile
    out = {
        "algorithm": algorithm,
        "n_peers": n_peers,
        "n_queries": n_queries,
        "seed": seed,
        "wall_s": wall_s,
        "setup_s": phase_times.get("setup_s"),
        "replay_s": phase_times.get("replay_s"),
        "peak_rss_mb": peak_rss_mb(),
        "arena": dict(profile.state) if profile is not None else {},
        "success_rate": result.summarize().success_rate,
    }
    print(json.dumps(out))


def _append_trajectory(entry: dict) -> None:
    if TRAJECTORY.exists():
        doc = json.loads(TRAJECTORY.read_text())
    else:
        doc = {"schema": BENCH_SCHEMA_VERSION, "entries": []}
    doc["entries"] = (doc.get("entries", []) + [entry])[-TRAJECTORY_KEEP:]
    TRAJECTORY.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def bench_scaleup(benchmark):
    def run():
        cells = []
        for n_peers in SIZES:
            for algorithm in ALGOS:
                cells.append(_run_cell(algorithm, n_peers))
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Scale-up: wall-clock and peak RSS per (algorithm, n_peers) cell",
        f"(fresh subprocess per cell; budget unit pinned at M0=3000; "
        f"peak-RSS bar {MAX_RSS_GB:.1f} GB)",
        "",
        f"{'cell':<22} {'queries':>8} {'wall s':>9} {'setup s':>9} "
        f"{'replay s':>9} {'peak RSS MB':>12} {'cached pairs':>13} "
        f"{'state MB':>9}",
    ]
    for cell in cells:
        arena = cell.get("arena") or {}
        lines.append(
            f"{cell['algorithm'] + '/' + str(cell['n_peers']):<22} "
            f"{cell['n_queries']:>8d} {cell['wall_s']:>9.1f} "
            f"{(cell['setup_s'] or 0.0):>9.1f} "
            f"{(cell['replay_s'] or 0.0):>9.1f} {cell['peak_rss_mb']:>12.1f} "
            f"{arena.get('rows_live', 0):>13d} "
            f"{arena.get('pool_bytes', 0) / 1e6:>9.1f}"
        )

    data = {
        "cells": cells,
        "max_rss_gb_bar": MAX_RSS_GB,
        "worst_rss_mb": max(c["peak_rss_mb"] for c in cells),
        "sizes": SIZES,
        "algorithms": ALGOS,
    }
    write_result("scaleup", "\n".join(lines), data=data)
    if RECORD:
        _append_trajectory(
            {
                "cells": cells,
                "worst_rss_mb": data["worst_rss_mb"],
                "recorded_utc": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
            }
        )

    for cell in cells:
        assert cell["peak_rss_mb"] < MAX_RSS_GB * 1024.0, (
            f"{cell['algorithm']}/{cell['n_peers']} peaked at "
            f"{cell['peak_rss_mb']:.0f} MB, over the {MAX_RSS_GB:.1f} GB bar"
        )


if __name__ == "__main__":
    if len(sys.argv) >= 6 and sys.argv[1] == "--cell":
        _cell_main(
            sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
        )
    else:  # pragma: no cover - convenience direct run
        raise SystemExit("run via pytest or with --cell <algo> <n> <q> <seed>")
