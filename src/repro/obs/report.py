"""Run-report CLI: each fact of a run serialised once, as JSON.

``python -m repro.obs.report run`` executes one configured trace replay
with profiling (and optionally tracing) enabled and writes

* ``run.json``    -- :func:`run_report`: the dicts the result objects already
  expose -- ``RunSummary.row()``, the bandwidth ledger's per-category
  totals, ``RunProfile.to_dict()`` and, with ``--replications N``, the
  across-seed :class:`~repro.simulation.replication.MetricSpread` of every
  summary metric over seeds ``seed .. seed+N-1`` (``--jobs J`` workers; each
  seed is simulated once, the run above being the first);
* ``trace.jsonl`` -- the structured trace, when ``--trace`` is given.

``python -m repro.obs.report diff a.json b.json`` compares two JSON
artifacts of this CLI -- ``run.json``, ``telemetry.json``, ``state.json``,
``audit.json`` or any other nested JSON -- numeric leaf by numeric leaf
under dotted keys (:func:`flatten`): the quick answer to "what changed
between these two runs?".  ``--tolerance T`` makes the exit code a drift
gate: non-zero when any leaf differs by more than ``T`` (absolute) or
exists on one side only.

``python -m repro.obs.report audit`` runs one experiment with the
invariant auditor (:mod:`repro.obs.audit`) attached, writes
``audit.json`` + ``trace.jsonl`` + ``analyze.json``, and exits non-zero
on any violation.  ``--baseline FILE`` additionally compares the run's
deterministic fingerprint against a stored one (a previous ``audit.json``
or a bare fingerprint file) and fails on drift -- the CI hook for
"did the simulation's semantics change?".

``python -m repro.obs.report analyze`` reconstructs causal lifecycles
(:mod:`repro.obs.analyze`) from an existing ``trace.jsonl`` -- no
simulation stack needed -- and emits the JSON summary.  Traces may be
gzip-compressed (``trace.jsonl.gz``); readers detect the suffix.

``python -m repro.obs.report telemetry`` runs one experiment (or
``--replications N`` seeds, optionally across ``--jobs J`` workers) with
streaming telemetry (:mod:`repro.obs.telemetry`) -- constant-memory
windowed load series, quantile sketches and heavy-hitter hotspots, no
trace file -- and writes ``telemetry.json`` next to a Fig-9-style
per-window table, the hotspots and the sketch quantiles on stdout.

Examples::

    python -m repro.obs.report run --algorithm asap_rw --peers 120 \
        --queries 60 --out obs-out --trace
    python -m repro.obs.report run --algorithm asap_rw --peers 120 \
        --queries 60 --replications 4 --jobs 2 --out obs-rep
    python -m repro.obs.report diff obs-out/run.json other/run.json
    python -m repro.obs.report audit --algorithm asap_rw --peers 120 \
        --queries 60 --out obs-audit --baseline baselines/asap_rw.json
    python -m repro.obs.report analyze --trace obs-audit/trace.jsonl
    python -m repro.obs.report telemetry --algorithm asap_rw --peers 120 \
        --queries 60 --replications 3 --jobs 2 --out obs-telemetry
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.profile import merge_profiles
from repro.obs.trace import Tracer

__all__ = ["diff_rows", "flatten", "main", "render_diff", "run_report"]


def run_report(config, result, others: Sequence = ()) -> dict:
    """What ``run.json`` holds: each fact of one run, from the object that
    owns it.

    ``result`` is the profiled run of ``config``; ``others`` are the
    profiled results of the same cell under the further seeds of a
    replicated run, whose spread the report then carries.
    """
    # Imported lazily: the diff subcommand must work without the heavy
    # simulation stack (numpy/scipy) ever loading.
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
    """The flags that name one cell, shared by ``run``, ``audit`` and
    ``telemetry`` (an argparse parent parser)."""
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

    return scaled_config(
        args.algorithm,
        args.topology,
        n_peers=args.peers,
        n_queries=args.queries,
        seed=args.seed,
        use_physical_network=not args.no_physical_network,
    )


def _run_seeds(config, seeds, jobs: int, **observe) -> Optional[list]:
    """``config`` under each of ``seeds`` through ``run_cells``, in seed
    order; ``None``, after printing every traceback, if a cell crashed."""
    from repro.experiments.parallel import CellFailure, run_cells

    outcomes = run_cells(
        [replace(config, seed=seed) for seed in seeds],
        jobs=jobs,
        progress=lambda msg: print(msg, file=sys.stderr),
        **observe,
    )
    failures = [o for o in outcomes if isinstance(o, CellFailure)]
    for failure in failures:
        print(failure.describe(), file=sys.stderr)
        print(failure.traceback, file=sys.stderr)
    return None if failures else outcomes


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.simulation.runner import run_experiment

    config = _cell_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    trace_path = out_dir / "trace.jsonl"
    stream = None
    if args.trace:
        stream = io.open(trace_path, "w")
        tracer = Tracer(stream=stream, keep=False)
    try:
        result = run_experiment(
            config,
            tracer=tracer,
            profile=True,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    finally:
        if stream is not None:
            stream.close()

    # The run above is seed ``seed``; any others fan out across --jobs.
    others = _run_seeds(
        config,
        range(config.seed + 1, config.seed + args.replications),
        args.jobs,
        profile=True,
    )
    if others is None:
        return 1
    report = run_report(config, result, others)
    json_path = out_dir / "run.json"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"wrote {json_path}", file=sys.stderr)
    if args.trace:
        print(f"wrote {trace_path}", file=sys.stderr)
    summary = report["summary"]
    print(
        f"{summary['algorithm']}/{summary['topology']}: "
        f"success={summary['success_rate']:.1%} "
        f"load={summary['load_mean_bpns']:.1f} B/node/s"
    )
    return 0


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


def _load_baseline_fingerprint(path: Path) -> str:
    """A stored fingerprint: a previous ``audit.json`` or a bare hex string."""
    text = path.read_text().strip()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(data, dict) and "fingerprint" in data:
        return str(data["fingerprint"])
    return text


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs.analyze import analyze_trace
    from repro.simulation.runner import run_experiment

    config = _cell_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    with io.open(trace_path, "w") as stream:
        tracer = Tracer(stream=stream, keep=True)
        result = run_experiment(config, tracer=tracer, audit=True)
    report = result.audit

    audit_path = out_dir / "audit.json"
    audit_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    analyze_path = out_dir / "analyze.json"
    analyze_path.write_text(
        json.dumps(analyze_trace(tracer.records).to_dict(), indent=2) + "\n"
    )
    for path in (trace_path, audit_path, analyze_path):
        print(f"wrote {path}", file=sys.stderr)
    print(report.format_table())

    exit_code = 0
    if not report.ok:
        print(f"{len(report.violations)} audit violation(s)", file=sys.stderr)
        exit_code = 1
    if args.baseline is not None:
        expected = _load_baseline_fingerprint(Path(args.baseline))
        if report.fingerprint != expected:
            print(
                f"fingerprint drift: baseline {expected} != run "
                f"{report.fingerprint}",
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print("fingerprint matches baseline", file=sys.stderr)
    return exit_code


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import merge_summaries

    config = _cell_config(args)
    if args.probe_interval is not None:
        config = replace(config, probe_interval_s=args.probe_interval)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outcomes = _run_seeds(
        config,
        range(config.seed, config.seed + args.replications),
        args.jobs,
        telemetry=True,
        probes=args.probes,
    )
    if outcomes is None:
        return 1
    # Input-order fold: bit-identical no matter how --jobs scheduled cells.
    summary = merge_summaries(o.telemetry for o in outcomes)
    if summary is None:
        # No cell, no summary (``--replications 0``): report it instead
        # of crashing on the absent summary.
        print(
            "no telemetry collected: none of the cells produced a "
            "telemetry section",
            file=sys.stderr,
        )
        return 1

    json_path = out_dir / "telemetry.json"
    json_path.write_text(
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {json_path}", file=sys.stderr)

    print(
        f"{args.algorithm}/{args.topology} telemetry over "
        f"{summary.cells} cell(s), fingerprint {summary.fingerprint()}"
    )
    print()
    print(summary.format_window_table(max_rows=args.max_rows))
    print()
    print(summary.format_hotspots())
    print()
    print(summary.format_sketches())

    if args.probes:
        from repro.obs.probes import merge_probe_summaries

        probe_summary = merge_probe_summaries(
            getattr(o, "probes", None) for o in outcomes
        )
        if probe_summary is None:
            print(
                "no probe snapshots collected: none of the cells produced "
                "a state section",
                file=sys.stderr,
            )
            return 1
        state_path = out_dir / "state.json"
        state_path.write_text(
            json.dumps(probe_summary.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {state_path}", file=sys.stderr)
        print()
        print(
            f"protocol state over {probe_summary.cells} cell(s), "
            f"{len(probe_summary.ticks)} tick(s), "
            f"fingerprint {probe_summary.fingerprint()}"
        )
        print()
        print(probe_summary.format_state_table(max_rows=args.max_rows))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Pure trace processing: works without the simulation stack.
    from repro.obs.analyze import analyze_trace
    from repro.obs.trace import read_trace

    analysis = analyze_trace(read_trace(args.trace))
    text = json.dumps(analysis.to_dict(), indent=2) + "\n"
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

    cell = _cell_parser()

    run_p = sub.add_parser(
        "run", parents=[cell], help="run one experiment and write run.json"
    )
    run_p.add_argument(
        "--replications",
        type=int,
        default=1,
        help="seeds seed..seed+N-1 whose spread run.json reports (default 1)",
    )
    run_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for --replications (0 = all cores)",
    )
    run_p.add_argument("--out", default="obs-report")
    run_p.add_argument(
        "--trace", action="store_true", help="also write trace.jsonl"
    )
    run_p.set_defaults(func=_cmd_run)

    diff_p = sub.add_parser("diff", help="diff two JSON artifacts of this CLI")
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

    audit_p = sub.add_parser(
        "audit",
        parents=[cell],
        help="run one experiment under the invariant auditor",
    )
    audit_p.add_argument("--out", default="obs-audit")
    audit_p.add_argument(
        "--baseline",
        default=None,
        help="stored audit.json (or bare fingerprint file) to compare the "
        "run fingerprint against; mismatch exits non-zero",
    )
    audit_p.set_defaults(func=_cmd_audit)

    tel_p = sub.add_parser(
        "telemetry",
        parents=[cell],
        help="run with streaming telemetry and export windowed load, "
        "sketches and hotspots (no trace file)",
    )
    tel_p.add_argument(
        "--replications",
        type=int,
        default=1,
        help="seeds seed..seed+N-1 to run and merge (default 1)",
    )
    tel_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for --replications (0 = all cores); the "
        "merged summary is bit-identical to --jobs 1",
    )
    tel_p.add_argument(
        "--probes",
        action="store_true",
        help="also record protocol-state snapshots (repro.obs.probes) and "
        "export the merged state series to state.json",
    )
    tel_p.add_argument(
        "--probe-interval",
        type=float,
        default=None,
        help="snapshot cadence in simulated seconds (default: the "
        "RunConfig default, 60; short traces need a tighter cadence -- "
        "the trace lasts ~n_queries/8 simulated seconds)",
    )
    tel_p.add_argument("--out", default="obs-telemetry")
    tel_p.add_argument(
        "--max-rows",
        type=int,
        default=20,
        help="cap on printed window-table rows (sampled evenly)",
    )
    tel_p.set_defaults(func=_cmd_telemetry)

    analyze_p = sub.add_parser(
        "analyze", help="summarise causal lifecycles from a trace.jsonl"
    )
    analyze_p.add_argument(
        "--trace", required=True, help="trace.jsonl (or .jsonl.gz) path"
    )
    analyze_p.add_argument(
        "--out", default=None, help="write the JSON summary here (default stdout)"
    )
    analyze_p.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
