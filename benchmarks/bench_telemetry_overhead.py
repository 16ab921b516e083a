"""Telemetry overhead: enabled vs disabled wall-clock on one large cell.

The streaming telemetry layer (:mod:`repro.obs.telemetry`) promises to be
cheap enough to leave on for paper-scale sweeps: the acceptance bar is
<= 5% wall-clock on a 10k-peer cell, and ~0% when disabled (the hook
sites reduce to one attribute load + branch).  This bench times the same
ASAP(RW) replay with telemetry off and on (interleaved rounds, min taken,
GC parked) and records the overhead fraction:

* ``benchmarks/results/telemetry_overhead.json`` -- this session's
  measurement (the schema-versioned envelope every bench emits);
* ``BENCH_TELEMETRY.json`` at the repo root -- the committed trajectory,
  one appended entry per recorded run, which CI's perf-regression gate
  (``benchmarks/check_perf_regression.py``) compares fresh runs against.

Scale control (environment variables):

* ``REPRO_BENCH_TELEMETRY_PEERS``   -- overlay size (default 10000)
* ``REPRO_BENCH_TELEMETRY_QUERIES`` -- trace length (default 1500)
* ``REPRO_BENCH_TELEMETRY_ROUNDS``  -- off/on timing pairs (default 2)
* ``REPRO_BENCH_TELEMETRY_MAX_OVERHEAD`` -- assertion bar (default 0.05)
* ``REPRO_BENCH_TELEMETRY_RECORD``  -- set to 0 to skip appending to the
  committed trajectory (CI smoke runs at tiny scale should not pollute it)

The physical substrate is skipped: it adds identical fixed cost to both
sides, which would only *flatter* the overhead ratio.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from conftest import BENCH_SCHEMA_VERSION, write_json_result
from repro.simulation import run_experiment, scaled_config

N_PEERS = int(os.environ.get("REPRO_BENCH_TELEMETRY_PEERS", "10000"))
N_QUERIES = int(os.environ.get("REPRO_BENCH_TELEMETRY_QUERIES", "1500"))
ROUNDS = int(os.environ.get("REPRO_BENCH_TELEMETRY_ROUNDS", "2"))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_TELEMETRY_MAX_OVERHEAD", "0.05"))
RECORD = os.environ.get("REPRO_BENCH_TELEMETRY_RECORD", "1") != "0"
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_TELEMETRY.json"
TRAJECTORY_KEEP = 50  # most recent entries retained in the committed file


def _cell(telemetry: bool):
    cfg = scaled_config(
        "asap_rw",
        "crawled",
        n_peers=N_PEERS,
        n_queries=N_QUERIES,
        seed=0,
        use_physical_network=False,
    )
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_experiment(cfg, telemetry=telemetry)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, result


def _append_trajectory(entry: dict) -> None:
    if TRAJECTORY.exists():
        doc = json.loads(TRAJECTORY.read_text())
    else:
        doc = {"schema": BENCH_SCHEMA_VERSION, "entries": []}
    doc["entries"] = (doc.get("entries", []) + [entry])[-TRAJECTORY_KEEP:]
    TRAJECTORY.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def bench_telemetry_overhead(benchmark):
    def run():
        times = {"disabled": [], "enabled": []}
        summary = None
        for _ in range(ROUNDS):
            t_off, _r = _cell(telemetry=False)
            t_on, r = _cell(telemetry=True)
            times["disabled"].append(t_off)
            times["enabled"].append(t_on)
            summary = r.telemetry
        return times, summary

    times, summary = benchmark.pedantic(run, rounds=1, iterations=1)
    disabled_s = min(times["disabled"])
    enabled_s = min(times["enabled"])
    overhead = enabled_s / disabled_s - 1.0

    data = {
        "n_peers": N_PEERS,
        "n_queries": N_QUERIES,
        "rounds": ROUNDS,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead_frac": overhead,
        "engine_events": summary["totals"]["engine_events"],
        "windows": len(summary["windows"]),
        "summary_json_bytes": len(
            json.dumps(summary, sort_keys=True, separators=(",", ":"))
        ),
    }
    write_json_result(
        "telemetry_overhead",
        data,
        extra={"scale": {"n_peers": N_PEERS, "n_queries": N_QUERIES, "seed": 0}},
    )
    if RECORD:
        _append_trajectory(
            dict(data, recorded_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        )

    # The summary really carried the run.
    assert summary["totals"]["queries"] == N_QUERIES
    assert summary["windows"]
    # The acceptance bar: enabled telemetry stays within budget.
    assert overhead <= MAX_OVERHEAD, (
        f"telemetry overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%} "
        f"(disabled {disabled_s:.2f}s, enabled {enabled_s:.2f}s)"
    )
