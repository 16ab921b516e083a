"""Run-report CLI: each fact of a run serialised once, as JSON.

``python -m repro.obs.report run`` is the one subcommand that simulates:
one :func:`~repro.experiments.parallel.run_cells` call replays the cell
under seeds ``seed .. seed+N-1`` (``--replications N``, ``--jobs J``
workers), profiled, with ``runall``'s observer flags, and writes
``run.json``:

* ``cell`` / ``summary`` / ``ledger`` / ``profile`` -- :func:`run_report`:
  the dicts seed ``seed``'s result objects already expose;
* ``replications`` -- with ``N > 1``, the across-seed
  :class:`~repro.simulation.replication.MetricSpread` of every summary
  metric and the merged profile's events and wall;
* ``audit`` -- with ``--audit``, each seed's invariant-audit report and
  fingerprint (:mod:`repro.obs.audit`), in seed order;
* ``telemetry`` / ``state`` -- with ``--telemetry`` / ``--probes``, each
  seed's load telemetry (:mod:`repro.obs.telemetry`) and protocol-state
  snapshots taken every ``--probe-interval`` simulated seconds
  (:mod:`repro.obs.probes`): a list of labelled documents in seed order.
  The peers of two seeds are different peers, so nothing is added up.

``--trace`` renders each seed's action tables to its own
``cell_trace_name`` JSONL file next to ``run.json``.  The command prints each section's table and
exits non-zero on a crashed cell, an audit violation, or a probe series
with no tick.

``python -m repro.obs.report diff a.json b.json`` compares two JSON
documents -- two ``run.json`` files, or any other nested JSON -- numeric
leaf by numeric leaf under dotted keys (:func:`flatten`): the quick answer
to "what changed between these two runs?".  ``--tolerance T`` makes the
exit code a drift gate: non-zero when any leaf differs by more than ``T``
(absolute) or exists on one side only.

``python -m repro.obs.report analyze`` parses an existing trace file back
into the action tables (:func:`~repro.obs.actions.read_trace`) -- the
tables ``--audit`` reads live -- and emits their JSON lifecycle summary
(:func:`~repro.obs.audit.summary`).  Traces may be gzip-compressed
(``.jsonl.gz``); readers detect the suffix.

Examples::

    python -m repro.obs.report run --algorithm asap_rw --peers 120 \
        --queries 60 --out obs-out --audit --trace
    python -m repro.obs.report analyze \
        --trace obs-out/asap_rw-crawled-seed0.jsonl
    python -m repro.obs.report run --algorithm asap_rw --peers 120 \
        --queries 60 --replications 3 --jobs 2 --telemetry --probes \
        --probe-interval 5 --out obs-rep
    python -m repro.obs.report diff obs-out/run.json obs-rep/run.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.profile import merge_profiles
from repro.obs.telemetry import (
    fingerprint,
    format_digests,
    format_hotspots,
    format_window_table,
)

__all__ = ["diff_rows", "flatten", "main", "render_diff", "run_report"]

#: Cap on the printed window- and state-table rows (sampled evenly).
MAX_ROWS = 20


def run_report(config, result, others: Sequence = ()) -> dict:
    """What ``run.json`` holds: each fact of one run, from the object that
    owns it.

    ``result`` is the profiled run of ``config``; ``others`` are the
    profiled results of the same cell under the further seeds of a
    replicated run, whose spread the report then carries.
    """
    # Imported where it is used, like this module's other simulator
    # imports.  That saves no load: ``import repro`` already brings in
    # numpy and the simulator (scipy is never imported outside tests).
    from repro.simulation.replication import summary_spreads

    summary = result.summarize()
    ledger = result.ledger
    totals = ledger.category_totals()
    report = {
        "cell": {
            "algorithm": config.algorithm,
            "topology": config.topology,
            "n_peers": config.n_peers,
            "seed": config.seed,
        },
        "summary": {**summary.row(), "n_queries": summary.n_queries},
        "ledger": {
            "bytes": {cat.value: nbytes for cat, nbytes in totals.items()},
            "messages": {cat.value: ledger.total_messages([cat]) for cat in totals},
            "window_load_bytes": {
                cat.value: nbytes
                for cat, nbytes in result.category_bytes_in_window().items()
            },
        },
        "profile": result.profile.to_dict(),
    }
    if others:
        spreads = summary_spreads([summary] + [r.summarize() for r in others])
        merged = merge_profiles([result.profile] + [r.profile for r in others])
        report["replications"] = {
            "metrics": {name: asdict(spread) for name, spread in spreads.items()},
            "events": merged.events,
            "wall_s": merged.wall_s,
        }
    return report


def flatten(doc, prefix: str = "") -> Dict[str, float]:
    """Dotted key -> numeric leaf of a nested JSON value.

    Lists contribute their indices as key parts, a flag counts as 0 / 1,
    and leaves that are not numbers (strings, ``null``) are ignored.  This
    is the comparison key-space of ``repro.obs.report diff``.
    """
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: float(doc)} if isinstance(doc, (int, float)) else {}
    out: Dict[str, float] = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def diff_rows(
    a: Dict[str, float], b: Dict[str, float], tolerance: float = 0.0
) -> List[Tuple[str, Optional[float], Optional[float]]]:
    """Rows ``(key, value_a, value_b)``, sorted by key, for every key that
    exists on one side only or whose values differ by more than
    ``tolerance`` (two NaNs do not differ)."""
    rows = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if (
            va is None
            or vb is None
            or math.isnan(va) != math.isnan(vb)
            or abs(vb - va) > tolerance
        ):
            rows.append((key, va, vb))
    return rows


def render_diff(a, b, label_a: str = "a", label_b: str = "b") -> str:
    """Human-readable leaf-by-leaf diff of two JSON documents."""
    rows = diff_rows(flatten(a), flatten(b))
    if not rows:
        return "reports are identical"
    name_w = max(len(r[0]) for r in rows)
    wa, wb = max(14, len(label_a)), max(14, len(label_b))
    lines = [f"{'key':<{name_w}}  {label_a:>{wa}}  {label_b:>{wb}}  {'delta':>14}"]
    for key, va, vb in rows:
        sa = "-" if va is None else f"{va:g}"
        sb = "-" if vb is None else f"{vb:g}"
        delta = "-" if va is None or vb is None else f"{vb - va:+g}"
        lines.append(f"{key:<{name_w}}  {sa:>{wa}}  {sb:>{wb}}  {delta:>14}")
    return "\n".join(lines)


def _cell_parser() -> argparse.ArgumentParser:
    """The flags that name one cell (an argparse parent parser)."""
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--algorithm", default="asap_rw")
    cell.add_argument("--topology", default="crawled")
    cell.add_argument("--peers", type=int, default=120)
    cell.add_argument("--queries", type=int, default=60)
    cell.add_argument("--seed", type=int, default=0)
    cell.add_argument(
        "--no-physical-network",
        action="store_true",
        help="skip the transit-stub substrate (faster smoke runs)",
    )
    return cell


def _cell_config(args: argparse.Namespace):
    """The :class:`RunConfig` of the cell ``_cell_parser``'s flags name."""
    from repro.simulation.config import scaled_config  # lazy, as in run_report

    config = scaled_config(
        args.algorithm,
        args.topology,
        n_peers=args.peers,
        n_queries=args.queries,
        seed=args.seed,
        use_physical_network=not args.no_physical_network,
    )
    if args.probe_interval is not None:
        config = replace(config, probe_interval_s=args.probe_interval)
    return config


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import CellFailure, cell_trace_name, run_cells

    config = args.config
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = partial(print, file=sys.stderr)

    seeds = list(range(config.seed, config.seed + args.replications))
    configs = [replace(config, seed=seed) for seed in seeds]
    results = run_cells(
        configs,
        args.jobs,
        profile=True,
        audit=args.audit,
        telemetry=args.telemetry,
        probes=args.probes,
        trace_dir=out_dir if args.trace else None,
        progress=log,
    )
    failures = [r for r in results if isinstance(r, CellFailure)]
    for failure in failures:
        log(failure.describe())
        log(failure.traceback)
    if failures:
        return 1
    log(results[0].profile.format_table())

    report = run_report(config, results[0], results[1:])
    summary = report["summary"]
    tables = [
        f"{summary['algorithm']}/{summary['topology']}: "
        f"success={summary['success_rate']:.1%} "
        f"load={summary['load_mean_bpns']:.1f} B/node/s"
    ]
    if "replications" in report:
        from repro.simulation.replication import MetricSpread, format_spreads

        metrics = report["replications"]["metrics"]
        tables.append(format_spreads(
            f"{summary['algorithm']} on {config.topology} "
            f"({len(seeds)} replications, seeds {seeds})",
            {name: MetricSpread(**spread) for name, spread in metrics.items()},
        ))
    exit_code = 0
    if args.audit:
        report["audit"] = [r.audit.to_dict() for r in results]
        tables += [r.audit.format_table() for r in results]
        violations = sum(len(r.audit.violations) for r in results)
        if violations:
            log(f"{violations} audit violation(s)")
            exit_code = 1
    # Seed-order lists: bit-identical no matter how --jobs scheduled cells.
    if args.telemetry:
        report["telemetry"] = [r.telemetry for r in results]
        for doc in report["telemetry"]:
            tables += [
                f"telemetry of {doc['label']}, fingerprint {fingerprint(doc)}",
                format_window_table(doc, max_rows=MAX_ROWS),
                format_hotspots(doc),
                format_digests(doc),
            ]
    if args.probes:
        from repro.obs.probes import format_state_table

        report["state"] = [r.probes for r in results]
        for doc in report["state"]:
            tables += [
                f"protocol state of {doc['label']}, {len(doc['ticks'])} "
                f"tick(s), fingerprint {fingerprint(doc)}",
                format_state_table(doc, max_rows=MAX_ROWS),
            ]
        if not any(doc["ticks"] for doc in report["state"]):
            log(
                f"--probes recorded no tick: the {config.probe_interval_s:g} s "
                f"probe interval exceeds the {max(r.t_end for r in results)} s "
                "simulated horizon; pass a shorter --probe-interval"
            )
            exit_code = 1

    json_path = out_dir / "run.json"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    log(f"wrote {json_path}")
    if args.trace:
        log("wrote " + ", ".join(str(out_dir / cell_trace_name(c)) for c in configs))
    print("\n\n".join(tables))
    return exit_code


def _cmd_diff(args: argparse.Namespace) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    print(render_diff(a, b, label_a=args.a, label_b=args.b))
    if args.tolerance is None:
        return 0  # informational diff, no gate
    drifted = diff_rows(flatten(a), flatten(b), args.tolerance)
    if drifted:
        print(
            f"{len(drifted)} value(s) drifted beyond tolerance {args.tolerance:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # The tables an audited run keeps, parsed from the file.
    from repro.obs.actions import read_trace
    from repro.obs.audit import summary

    text = json.dumps(summary(read_trace(args.trace)), indent=2) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        parents=[_cell_parser()],
        help="run one cell under N seeds and write run.json",
    )
    run_p.add_argument(
        "--replications",
        type=_positive_int,
        default=1,
        help="seeds seed..seed+N-1 to run; run.json reports their spread "
        "and lists each seed's observer sections (default 1)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for --replications (0 = all cores); every "
        "section is bit-identical to --jobs 1",
    )
    run_p.add_argument(
        "--audit",
        action="store_true",
        help="run the invariant auditor on every seed; exit non-zero on "
        "any violation",
    )
    run_p.add_argument(
        "--telemetry",
        action="store_true",
        help="collect load telemetry (windowed load, hot peers and links, "
        "quantile digests) on every seed",
    )
    run_p.add_argument(
        "--probes",
        action="store_true",
        help="record protocol-state snapshots on every seed; exit non-zero "
        "when none falls inside the replay",
    )
    run_p.add_argument(
        "--probe-interval",
        type=float,
        default=None,
        help="snapshot cadence in simulated seconds (default: the "
        "RunConfig default, 60; short traces need a tighter cadence -- "
        "the trace lasts ~n_queries/8 simulated seconds)",
    )
    run_p.add_argument("--out", default="obs-report")
    run_p.add_argument(
        "--trace",
        action="store_true",
        help="also write each seed's trace to its own JSONL file in --out",
    )
    run_p.set_defaults(func=_cmd_run)

    diff_p = sub.add_parser("diff", help="diff two JSON documents leaf by leaf")
    diff_p.add_argument("a")
    diff_p.add_argument("b")
    diff_p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="gate mode: exit non-zero when any value differs by more "
        "than this (absolute) or exists on one side only; omit for a "
        "purely informational diff (always exit 0); 0 fails on any drift",
    )
    diff_p.set_defaults(func=_cmd_diff)

    analyze_p = sub.add_parser(
        "analyze", help="summarise causal lifecycles from a trace file"
    )
    analyze_p.add_argument(
        "--trace", required=True, help="trace JSONL (or .jsonl.gz) path"
    )
    analyze_p.add_argument(
        "--out", default=None, help="write the JSON summary here (default stdout)"
    )
    analyze_p.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            args.config = _cell_config(args)
        except ValueError as exc:  # a nonsense cell, e.g. --peers 5
            run_p.error(str(exc))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
