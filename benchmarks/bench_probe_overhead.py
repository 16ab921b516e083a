"""Probe overhead: protocol-state snapshots on vs off on one large cell.

The state-probe layer (:mod:`repro.obs.probes`) promises to be cheap
enough to leave on for paper-scale sweeps: the acceptance bars are <= 2%
wall-clock when disabled (the runner skips the subsystem entirely --
nothing is scheduled) and <= 10% when enabled at the default 60 s cadence
on a 10k-peer ASAP cell.  This bench times the same ASAP(RW) replay with
probes off and on (interleaved rounds, min taken, GC parked) and records
the overhead fraction:

* ``benchmarks/results/probe_overhead.json`` -- this session's
  measurement (the schema-versioned envelope every bench emits);
* ``BENCH_PROBES.json`` at the repo root -- a trajectory, one appended
  entry per recorded run.  None is committed: the file appears only after
  a local run with recording on, so CI's perf-regression gate
  (``benchmarks/check_perf_regression.py --probes-result ...``) holds
  fresh runs to the absolute ``--max-probe-overhead`` bar alone.

Scale control (environment variables):

* ``REPRO_BENCH_PROBES_PEERS``   -- overlay size (default 10000)
* ``REPRO_BENCH_PROBES_QUERIES`` -- trace length (default 1500)
* ``REPRO_BENCH_PROBES_ROUNDS``  -- off/on timing pairs (default 2)
* ``REPRO_BENCH_PROBES_MAX_OVERHEAD`` -- assertion bar (default 0.10)
* ``REPRO_BENCH_PROBES_RECORD``  -- set to 0 to skip appending to the
  trajectory (CI smoke runs at tiny scale should not pollute it)

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
from repro.obs.probes import state_fingerprint
from repro.simulation import run_experiment, scaled_config

N_PEERS = int(os.environ.get("REPRO_BENCH_PROBES_PEERS", "10000"))
N_QUERIES = int(os.environ.get("REPRO_BENCH_PROBES_QUERIES", "1500"))
ROUNDS = int(os.environ.get("REPRO_BENCH_PROBES_ROUNDS", "2"))
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_PROBES_MAX_OVERHEAD", "0.10"))
RECORD = os.environ.get("REPRO_BENCH_PROBES_RECORD", "1") != "0"
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_PROBES.json"
TRAJECTORY_KEEP = 50  # most recent entries retained in the trajectory file


def _cell(probes: bool):
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
        result = run_experiment(cfg, probes=probes)
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


def bench_probe_overhead(benchmark):
    def run():
        times = {"disabled": [], "enabled": []}
        summary = None
        for _ in range(ROUNDS):
            t_off, _r = _cell(probes=False)
            t_on, r = _cell(probes=True)
            times["disabled"].append(t_off)
            times["enabled"].append(t_on)
            summary = r.probes
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
        "ticks": len(summary["ticks"]),
        "interval_s": summary["interval_s"],
        "state_fingerprint": state_fingerprint(summary),
        "summary_json_bytes": len(
            json.dumps(summary, sort_keys=True, separators=(",", ":"))
        ),
    }
    write_json_result(
        "probe_overhead",
        data,
        extra={"scale": {"n_peers": N_PEERS, "n_queries": N_QUERIES, "seed": 0}},
    )
    if RECORD:
        _append_trajectory(
            dict(data, recorded_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
        )

    # The summary really carried the run (not a null object).
    assert summary["ticks"], "no probe snapshots recorded"
    assert summary["ticks"][-1]["entries"] > 0
    # The acceptance bar: enabled probes stay within budget.
    assert overhead <= MAX_OVERHEAD, (
        f"probe overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%} "
        f"(disabled {disabled_s:.2f}s, enabled {enabled_s:.2f}s)"
    )
