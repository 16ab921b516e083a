"""Perf-regression gates for the telemetry, scale-up and probe benchmarks.

Compares fresh benchmark outputs against the committed trajectories and
fails (exit 1) on regression.  Every gate is expressed in *relative*
terms (two arms of the same process on the same machine), so it is
meaningful across machines of different speeds -- absolute seconds are
reported but never gated on.

**Telemetry gate** (always runs) -- fresh
``benchmarks/results/telemetry_overhead.json`` vs ``BENCH_TELEMETRY.json``:

1. **absolute bar** -- the fresh overhead fraction must stay under
   ``--max-overhead`` (default 0.05, the acceptance budget);
2. **trend bar** -- the fresh overhead fraction must not exceed the
   committed baseline (last trajectory entry) by more than
   ``--tolerance`` (default 0.02 absolute, i.e. two percentage points of
   headroom for machine noise).

**Scale-up gate** (runs when ``--scaleup-result`` is given) -- fresh
``benchmarks/results/scaleup.json`` (written by ``bench_scaleup.py``)
vs ``BENCH_SCALEUP.json``:

1. **absolute bar** -- every cell's peak RSS must stay under
   ``--max-scaleup-rss-gb`` (default 8.0, the bar ASAP's dense ads state
   is sized against; CI's reduced-scale smoke keeps the same bar --
   memory only shrinks with cell size);
2. **trend bar** -- each fresh cell whose (algorithm, n_peers, cache)
   triple matches a committed baseline cell must not exceed that cell's
   peak RSS by more than ``--scaleup-tolerance`` (default 0.25
   multiplicative headroom).

**Probe gate** (runs when ``--probes-result`` is given) -- fresh
``benchmarks/results/probe_overhead.json`` (written by
``bench_probe_overhead.py``).  No probe trajectory is committed
(``BENCH_PROBES.json`` does not exist), so only the absolute bar gates
today and the gate prints "probe trend check skipped":

1. **absolute bar** -- the fresh probes-enabled overhead fraction must
   stay under ``--max-probe-overhead`` (default 0.10, the acceptance
   budget for state snapshots at the default 60 s cadence);
2. **trend bar** (only once a ``--probes-baseline`` file exists) -- the
   fresh overhead fraction must not exceed its last entry by more than
   ``--probes-tolerance`` (default 0.05 absolute).

Usage (as CI runs it)::

    python benchmarks/check_perf_regression.py \
        --result benchmarks/results/telemetry_overhead.json \
        --baseline BENCH_TELEMETRY.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load_result(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if doc.get("schema") != 1:
        raise SystemExit(f"{path}: unsupported schema {doc.get('schema')!r}")
    return doc["data"]


def _load_baseline(path: Path) -> dict | None:
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    entries = doc.get("entries", [])
    return entries[-1] if entries else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--result",
        type=Path,
        default=Path("benchmarks/results/telemetry_overhead.json"),
        help="fresh benchmark output to check",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("BENCH_TELEMETRY.json"),
        help="committed trajectory file (last entry is the baseline)",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="absolute bar on the overhead fraction (default 0.05)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="allowed absolute increase over the baseline overhead "
        "fraction (default 0.02)",
    )
    parser.add_argument(
        "--probes-result",
        type=Path,
        default=None,
        help="fresh probe-overhead benchmark output; enables the probe gate",
    )
    parser.add_argument(
        "--probes-baseline",
        type=Path,
        default=Path("BENCH_PROBES.json"),
        help="probe trajectory file (last entry is the baseline); none is "
        "committed, so the trend check is skipped unless one is supplied",
    )
    parser.add_argument(
        "--max-probe-overhead",
        type=float,
        default=0.10,
        help="absolute bar on the probes-enabled overhead fraction "
        "(default 0.10)",
    )
    parser.add_argument(
        "--probes-tolerance",
        type=float,
        default=0.05,
        help="allowed absolute increase over the baseline probe overhead "
        "fraction (default 0.05)",
    )
    parser.add_argument(
        "--scaleup-result",
        type=Path,
        default=None,
        help="fresh scale-up benchmark output; enables the memory gate",
    )
    parser.add_argument(
        "--scaleup-baseline",
        type=Path,
        default=Path("BENCH_SCALEUP.json"),
        help="committed scale-up trajectory file (last entry is baseline)",
    )
    parser.add_argument(
        "--max-scaleup-rss-gb",
        type=float,
        default=8.0,
        help="absolute bar on any cell's peak RSS in GB (default 8.0)",
    )
    parser.add_argument(
        "--scaleup-tolerance",
        type=float,
        default=0.25,
        help="allowed multiplicative peak-RSS growth over a matching "
        "baseline cell (default 0.25, i.e. fresh <= 1.25 * baseline)",
    )
    args = parser.parse_args(argv)

    failures = []
    other_gates = args.scaleup_result is not None or args.probes_result is not None
    if other_gates and not args.result.exists():
        # A job running only the scale-up or probe gate (e.g. the scale-up
        # CI smoke) has no telemetry result to check.
        print(f"{args.result} absent; telemetry gate skipped")
    else:
        fresh = _load_result(args.result)
        overhead = fresh["overhead_frac"]
        print(
            f"fresh run: {fresh['n_peers']} peers, {fresh['n_queries']} queries, "
            f"disabled {fresh['disabled_s']:.3f}s, enabled {fresh['enabled_s']:.3f}s, "
            f"overhead {overhead:+.2%}"
        )

        if overhead > args.max_overhead:
            failures.append(
                f"overhead {overhead:.2%} exceeds the absolute bar "
                f"{args.max_overhead:.0%}"
            )

        baseline = _load_baseline(args.baseline)
        if baseline is None:
            print(f"no baseline in {args.baseline}; trend check skipped")
        else:
            base_overhead = baseline["overhead_frac"]
            print(
                f"baseline ({baseline.get('recorded_utc', 'undated')}): "
                f"{baseline['n_peers']} peers, {baseline['n_queries']} queries, "
                f"overhead {base_overhead:+.2%}"
            )
            if overhead > base_overhead + args.tolerance:
                failures.append(
                    f"overhead {overhead:.2%} regressed past baseline "
                    f"{base_overhead:.2%} + tolerance {args.tolerance:.0%}"
                )

    if args.probes_result is not None:
        probes = _load_result(args.probes_result)
        probe_overhead = probes["overhead_frac"]
        print(
            f"probes run: {probes['n_peers']} peers, "
            f"{probes['n_queries']} queries, {probes['ticks']} ticks, "
            f"disabled {probes['disabled_s']:.3f}s, "
            f"enabled {probes['enabled_s']:.3f}s, "
            f"overhead {probe_overhead:+.2%}"
        )
        if probe_overhead > args.max_probe_overhead:
            failures.append(
                f"probe overhead {probe_overhead:.2%} exceeds the absolute "
                f"bar {args.max_probe_overhead:.0%}"
            )
        probes_base = _load_baseline(args.probes_baseline)
        if probes_base is None:
            print(
                f"no baseline in {args.probes_baseline}; "
                "probe trend check skipped"
            )
        else:
            base_overhead = probes_base["overhead_frac"]
            print(
                f"probes baseline ({probes_base.get('recorded_utc', 'undated')}): "
                f"{probes_base['n_peers']} peers, "
                f"{probes_base['n_queries']} queries, "
                f"overhead {base_overhead:+.2%}"
            )
            if probe_overhead > base_overhead + args.probes_tolerance:
                failures.append(
                    f"probe overhead {probe_overhead:.2%} regressed past "
                    f"baseline {base_overhead:.2%} + tolerance "
                    f"{args.probes_tolerance:.0%}"
                )

    if args.scaleup_result is not None:
        scaleup = _load_result(args.scaleup_result)
        rss_bar_mb = args.max_scaleup_rss_gb * 1024.0
        base_entry = _load_baseline(args.scaleup_baseline)
        base_cells = {}
        if base_entry is not None:
            base_cells = {
                (
                    c["algorithm"], c["n_peers"], c.get("cache_capacity")
                ): c["peak_rss_mb"]
                for c in base_entry.get("cells", [])
            }
        for cell in scaleup["cells"]:
            key = (
                cell["algorithm"], cell["n_peers"], cell.get("cache_capacity")
            )
            rss = cell["peak_rss_mb"]
            label = f"{cell['algorithm']}/{cell['n_peers']}"
            print(
                f"scaleup {label}: peak RSS {rss:.0f} MB, "
                f"wall {cell['wall_s']:.1f}s"
            )
            if rss > rss_bar_mb:
                failures.append(
                    f"scaleup {label} peak RSS {rss:.0f} MB exceeds the "
                    f"{args.max_scaleup_rss_gb:.1f} GB bar"
                )
            base_rss = base_cells.get(key)
            if base_rss is not None and rss > base_rss * (
                1.0 + args.scaleup_tolerance
            ):
                failures.append(
                    f"scaleup {label} peak RSS {rss:.0f} MB regressed past "
                    f"baseline {base_rss:.0f} MB + "
                    f"{args.scaleup_tolerance:.0%}"
                )
        if base_entry is None:
            print(
                f"no baseline in {args.scaleup_baseline}; "
                "scale-up trend check skipped"
            )

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("OK: all perf gates within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
