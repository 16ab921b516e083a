#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

Two ways to call it (README.md has the definitions):

* one run -- ``run.py --workload NAME --seed N --seconds S --trace 0|1``
  measures one workload in this process and prints, as its last line, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
  every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
  per-layer metric (``--trace 1``);
* a full set -- ``run.py [--seed N] [--repeats K] [--workload NAME]
  [--out FILE] [--expect FILE] [--smoke]`` starts such runs as fresh
  subprocesses, one at a time, ``K`` timed runs plus one traced run per
  workload, round-robin across workloads, and reports the median over the
  repeats of every metric.

``run.py --compare A.json B.json`` judges two full sets against the bounds
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def wall_clock(detail: dict) -> Dict[str, float]:
    """A timed run's host-time medians before the slowdown was divided out."""
    medians = {k: statistics.median(v) for k, v in detail["wall_samples"].items()}
    return {**medians, "host_slowdown": detail["host_slowdown"]}


def print_wall_clock(values: Dict[str, float]) -> None:
    print("  wall-clock: " + ", ".join(f"{k} {fmt(v)}" for k, v in values.items()))


# ------------------------------------------------------------------ one run
def single_run(args: argparse.Namespace, spec: dict) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"run.py: no simulator at {src}/repro to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    from measure import timed_run
    from traced import traced_run
    from workloads import WORKLOADS

    workload = {w.name: w for w in WORKLOADS}[args.workload]
    if args.trace:
        detail = traced_run(workload, args.seed, args.smoke)
    else:
        detail = timed_run(workload, args.seed, args.seconds, args.smoke)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = detail["metrics"]
    odd = sorted(set(values) ^ {m["name"] for m in declared})
    if odd:
        # A cell raised (traceback above) or the metric list and
        # BENCHMARK.json drifted apart: either way there is no result.
        print(f"run.py: metrics do not match BENCHMARK.json: {odd}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{workload.name} seed={args.seed} {kind}, {detail['iterations']} iteration(s)")
    for name, m in metrics.items():
        print(f"  {name:<40} {fmt(m['value']):>14} {m['unit']}")
    if not args.trace:
        print_wall_clock(wall_clock(detail))
        print(f"  sim_fingerprint {detail['sim_fingerprint']}")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(detail, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------- a full set
def start_run(
    args: argparse.Namespace, workload: str, seconds: int, trace: int, out: Path
) -> dict:
    """One run in a fresh interpreter, so ``ru_maxrss`` is that run's own."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if not out.exists():
        raise SystemExit(f"run.py: {' '.join(cmd)} exited {proc.returncode}")
    with open(out) as fh:
        detail = json.load(fh)
    out.unlink()
    return detail


def host_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip()
    except OSError:
        return "unknown"
    return (sha or "unknown") + ("-dirty" if dirty else "")


def summarise_workload(
    spec: dict, timed: List[dict], traced: dict, expected: Optional[str]
) -> dict:
    """Medians over the repeats, plus the checks only a set of runs allows."""
    end_to_end = {}
    for m in spec["end_to_end"]:
        samples = [run["metrics"][m["name"]] for run in timed]
        end_to_end[m["name"]] = {
            "unit": m["unit"],
            "median": statistics.median(samples),
            "min": min(samples),
            "max": max(samples),
            "n": len(samples),
            "samples": samples,
        }
    per_layer = {
        m["name"]: {"unit": m["unit"], "value": traced["metrics"][m["name"]]}
        for m in spec["per_layer"]
    }
    # + 1: the set-level check below (fingerprints agree across the runs).
    attempted = sum(r["attempted"] for r in timed) + traced["attempted"] + 1
    failed = sum(r["failed"] for r in timed) + traced["failed"]
    fingerprint = timed[0]["sim_fingerprint"]
    problems = []
    if len({r["sim_fingerprint"] for r in timed}) > 1:
        problems.append("repeats disagree on sim_fingerprint")
    n_traced = len(traced["cell_fingerprints"])
    if traced["cell_fingerprints"] != timed[0]["cell_fingerprints"][:n_traced]:
        problems.append("traced run's sim_fingerprint differs from the timed runs'")
    if expected is not None and expected != fingerprint:
        problems.append(f"sim_fingerprint {fingerprint} != expected {expected}")
    if problems:
        failed = attempted  # results that cannot be trusted fail every op
    return {
        "sim_fingerprint": fingerprint,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "problems": problems,
        "iterations": timed[0]["iterations"],
        "wall_clock": [wall_clock(run) for run in timed],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def print_workload(name: str, summary: dict) -> None:
    print(f"\n== {name}  ({summary['iterations']} iterations per run)")
    print(f"  {'end-to-end metric':<26} {'median':>12} {'unit':<9} "
          f"{'min':>12} {'max':>12} {'n':>3}")
    for metric, s in summary["end_to_end"].items():
        print(f"  {metric:<26} {fmt(s['median']):>12} {s['unit']:<9} "
              f"{fmt(s['min']):>12} {fmt(s['max']):>12} {s['n']:>3}")
    print(f"  {'ops_attempted':<26} {summary['ops_attempted']:>12} count")
    print(f"  {'ops_failed':<26} {summary['ops_failed']:>12} count")
    for values in summary["wall_clock"]:
        print_wall_clock(values)
    print(f"  sim_fingerprint {summary['sim_fingerprint']}")
    print("  per-layer metric (one traced run)")
    for metric, s in summary["per_layer"].items():
        print(f"  {metric:<40} {fmt(s['value']):>14} {s['unit']}")
    for problem in summary["problems"]:
        print(f"  !!!! {name}: {problem} !!!!")


def full_run(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    expected = {}
    if args.expect:
        with open(args.expect) as fh:
            expected = {
                name: w["sim_fingerprint"]
                for name, w in json.load(fh)["workloads"].items()
            }
    seconds = spec["run_seconds"]
    RESULTS.mkdir(exist_ok=True)
    timed: Dict[str, List[dict]] = {name: [] for name in names}
    traced: Dict[str, dict] = {}
    # Never two cells at once (the box has two cores), and round-robin so
    # machine drift lands on every workload alike.
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        out = Path(tmp) / "run.json"
        for repeat in range(args.repeats):
            for name in names:
                print(f"[timed {repeat + 1}/{args.repeats}] {name}", file=sys.stderr)
                timed[name].append(start_run(args, name, seconds, 0, out))
        for name in names:
            print(f"[traced] {name}", file=sys.stderr)
            traced[name] = start_run(args, name, seconds, 1, out)

    result = {
        "schema": 1,
        "git_sha": git_sha(),
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "run_seconds": seconds,
        "host": host_info(),
        "workloads": {
            name: summarise_workload(
                spec, timed[name], traced[name], expected.get(name)
            )
            for name in names
        },
    }
    for name, summary in result["workloads"].items():
        print_workload(name, summary)
    out_path = Path(args.out) if args.out else RESULTS / "latest.json"
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nwrote {out_path}")
    if not args.smoke:
        line = {k: v for k, v in result.items() if k != "workloads"}
        line["medians"] = {
            name: {m: s["median"] for m, s in w["end_to_end"].items()}
            for name, w in result["workloads"].items()
        }
        line["sim_fingerprints"] = {
            name: w["sim_fingerprint"] for name, w in result["workloads"].items()
        }
        with open(RESULTS / "history.jsonl", "a") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    failed = sum(w["ops_failed"] for w in result["workloads"].values())
    return 1 if failed else 0


# --------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; iteration i replays RunConfig.seed 100*seed+i")
    p.add_argument("--seconds", type=float,
                   help="one run in this process, sized to this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --seconds: 1 = the traced run (per-layer metrics)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timed runs per workload in a full set")
    p.add_argument("--out", help="result JSON (default results/latest.json)")
    p.add_argument("--expect", metavar="FILE",
                   help="an earlier result whose sim_fingerprints must be met")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at <= 400 peers, two iterations")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(spec, *args.compare)
    if args.seconds is not None:
        if not args.workload:
            p.error("--seconds needs --workload")
        return single_run(args, spec)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    return full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
