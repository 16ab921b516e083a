"""Metrics-export CLI: snapshot a run into JSON + Prometheus reports.

``python -m repro.obs.report run`` executes one configured trace replay
with profiling (and optionally tracing) enabled, then snapshots the
bandwidth ledger, ASAP cache diagnostics, search outcomes and the run
profile into a :class:`~repro.obs.metrics.MetricsRegistry`, written as

* ``metrics.json`` -- the registry's JSON form (machine-readable, and the
  input format of ``diff``);
* ``metrics.prom`` -- Prometheus text exposition format (scrapeable /
  pushable to a gateway);
* ``trace.jsonl``  -- the structured trace, when ``--trace`` is given.

``python -m repro.obs.report diff a.json b.json`` compares two JSON
reports series-by-series -- the quick answer to "what changed between
these two runs?".  ``--tolerance T`` makes the exit code a drift gate:
non-zero when any series differs by more than ``T`` (absolute) or exists
on one side only.

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
trace file -- and writes ``telemetry.json`` + ``telemetry.prom`` next to
a Fig-9-style per-window table on stdout.  ``--live`` streams a status
line to stderr while cells run.

``--replications N --jobs J`` additionally replays seeds ``seed .. seed+N-1``
across ``J`` worker processes and folds the across-seed metric spread plus
the merged run profiles into the report (``repro_replication_*`` series).

Examples::

    python -m repro.obs.report run --algorithm asap_rw --peers 120 \
        --queries 60 --out obs-out --trace
    python -m repro.obs.report run --algorithm asap_rw --peers 120 \
        --queries 60 --replications 4 --jobs 2 --out obs-rep
    python -m repro.obs.report diff obs-out/metrics.json other/metrics.json
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
import sys
from pathlib import Path
from typing import List, Optional

from repro.obs.metrics import MetricsRegistry, diff_flat, flatten
from repro.obs.trace import Tracer

__all__ = ["build_registry", "main", "render_diff", "telemetry_registry"]

#: Response-time buckets in milliseconds (spans LAN RTTs to multi-ring
#: flood timeouts at the scales the reproduction runs).
_RESPONSE_TIME_BUCKETS_MS = (
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)


def build_registry(result, run_labels: Optional[dict] = None) -> MetricsRegistry:
    """Snapshot a :class:`~repro.simulation.results.RunResult` into metrics.

    Includes ledger category totals (bytes and messages), per-query
    outcome statistics, the measurement-window load summary, and -- when
    present on the result -- the run profile's per-phase/per-subsystem
    accounting and the ASAP cache diagnostics.
    """
    labels = dict(run_labels or {})
    labels.setdefault("algorithm", result.algorithm)
    labels.setdefault("topology", result.topology)
    reg = MetricsRegistry()

    info = reg.gauge(
        "repro_run_info",
        "Constant 1; labels identify the run.",
        n_peers=str(result.n_peers),
        **labels,
    )
    info.set(1)

    # --- ledger ----------------------------------------------------------
    for category, nbytes in sorted(
        result.ledger.category_totals().items(), key=lambda kv: kv[0].value
    ):
        reg.counter(
            "repro_ledger_bytes_total",
            "Bytes transmitted per traffic category over the whole run.",
            category=category.value,
        ).inc(nbytes)
        reg.counter(
            "repro_ledger_messages_total",
            "Messages transmitted per traffic category over the whole run.",
            category=category.value,
        ).inc(result.ledger.total_messages([category]))

    for category, nbytes in sorted(
        result.category_bytes_in_window().items(), key=lambda kv: kv[0].value
    ):
        reg.counter(
            "repro_window_load_bytes_total",
            "System-load bytes per category inside the measurement window.",
            category=category.value,
        ).inc(nbytes)

    # --- queries ---------------------------------------------------------
    reg.counter(
        "repro_queries_total", "Search requests replayed.", **labels
    ).inc(result.n_queries)
    successes = [o for o in result.outcomes if o.success]
    reg.counter(
        "repro_queries_succeeded_total", "Search requests with >= 1 result.", **labels
    ).inc(len(successes))
    reg.gauge(
        "repro_query_success_rate", "Fraction of successful searches.", **labels
    ).set(result.success_rate())
    reg.gauge(
        "repro_query_avg_cost_bytes", "Mean per-search bandwidth.", **labels
    ).set(result.avg_cost_bytes())
    hist = reg.histogram(
        "repro_query_response_time_ms",
        "Response time of successful searches (milliseconds).",
        buckets=_RESPONSE_TIME_BUCKETS_MS,
        **labels,
    )
    for o in successes:
        hist.observe(o.response_time_ms)

    # --- system load -----------------------------------------------------
    load = result.load_summary()
    for field_name in ("mean", "std", "peak"):
        reg.gauge(
            "repro_load_bytes_per_node_per_second",
            "Measurement-window system load (paper Section V-B).",
            stat=field_name,
            **labels,
        ).set(getattr(load, field_name))

    # --- run profile -----------------------------------------------------
    if result.profile is not None:
        p = result.profile
        reg.counter(
            "repro_profile_dispatched_events_total",
            "Events dispatched by the simulation engine.",
            **labels,
        ).inc(p.events)
        reg.gauge(
            "repro_profile_wall_seconds",
            "Wall-clock seconds spent inside event callbacks.",
            **labels,
        ).set(p.wall_s)
        reg.gauge(
            "repro_engine_pending_live",
            "Live (non-cancelled) events still queued at run end.",
            **labels,
        ).set(p.engine_pending_live)
        for phase, stats in sorted(p.phases.items()):
            reg.counter(
                "repro_profile_phase_events_total",
                "Dispatched events per trace phase.",
                phase=phase,
            ).inc(stats.events)
            reg.gauge(
                "repro_profile_phase_wall_seconds",
                "Wall-clock seconds per trace phase.",
                phase=phase,
            ).set(stats.wall_s)
        for subsystem, stats in sorted(p.subsystems.items()):
            reg.counter(
                "repro_profile_subsystem_events_total",
                "Dispatched events per subsystem (event-name family).",
                subsystem=subsystem,
            ).inc(stats.events)
            reg.gauge(
                "repro_profile_subsystem_wall_seconds",
                "Wall-clock seconds per subsystem.",
                subsystem=subsystem,
            ).set(stats.wall_s)

    # --- ASAP cache diagnostics -----------------------------------------
    if result.cache_diagnostics is not None:
        for key, value in result.cache_diagnostics.to_dict().items():
            reg.gauge(
                "repro_asap_cache_" + key,
                "ASAP ads-cache diagnostic (see repro.asap.diagnostics).",
            ).set(value)

    return reg


#: Quantiles exported for every telemetry sketch.
_TELEMETRY_QUANTILES = (0.5, 0.9, 0.99)


def telemetry_registry(summary, run_labels: Optional[dict] = None) -> MetricsRegistry:
    """Snapshot a :class:`~repro.obs.telemetry.TelemetrySummary` into metrics.

    Exports the run-total counters, per-category byte totals, sketch
    quantiles (response time, per-search cost, per-delivery bytes, per-peer
    attributed load) and the top-K heavy-hitter peers/links -- everything a
    scrape needs to chart load balance without storing a trace.
    """
    labels = dict(run_labels or {})
    reg = MetricsRegistry()
    reg.gauge(
        "repro_telemetry_cells", "Runs merged into this summary.", **labels
    ).set(summary.cells)
    reg.gauge(
        "repro_telemetry_windows", "Time windows covered.", **labels
    ).set(len(summary.windows))
    reg.gauge(
        "repro_telemetry_window_seconds", "Window width (simulation s).", **labels
    ).set(summary.window_s)
    reg.gauge(
        "repro_telemetry_load_std_bpns",
        "Std dev of per-window load per node per second (Figure 9).",
        **labels,
    ).set(summary.load_std_bpns())
    for key, value in sorted(summary.totals.items()):
        if isinstance(value, dict):
            for sub, v in sorted(value.items()):
                reg.counter(
                    f"repro_telemetry_{key}_total",
                    "Telemetry run total per traffic category.",
                    category=str(sub),
                ).inc(v)
        else:
            reg.counter(
                "repro_telemetry_events_total",
                "Telemetry run-total counters.",
                kind=str(key),
            ).inc(value)
    sketches = (
        ("response_time_ms", summary.response_time_ms),
        ("query_cost_bytes", summary.query_cost_bytes),
        ("delivery_bytes", summary.delivery_bytes),
        ("per_peer_bytes", summary.per_peer_bytes),
    )
    for name, sketch in sketches:
        if sketch.count == 0:
            continue
        for q in _TELEMETRY_QUANTILES:
            reg.gauge(
                f"repro_telemetry_{name}",
                "Streaming sketch quantile (relative error <= gamma-1).",
                quantile=f"{q:g}",
            ).set(sketch.quantile(q))
    for key, count, _err in summary.hot_peers.top(summary.top_k):
        reg.gauge(
            "repro_telemetry_hot_peer_bytes",
            "Bytes attributed to the hottest peers (Space-Saving top-K).",
            peer=str(key),
        ).set(count)
    for key, count, _err in summary.hot_links.top(summary.top_k):
        reg.gauge(
            "repro_telemetry_hot_link_bytes",
            "Bytes attributed to the hottest links (Space-Saving top-K).",
            link=str(key),
        ).set(count)
    return reg


def render_diff(a: dict, b: dict, label_a: str = "a", label_b: str = "b") -> str:
    """Human-readable series-by-series diff of two JSON reports."""
    rows = diff_flat(flatten(a), flatten(b))
    if not rows:
        return "reports are identical"
    name_w = max(len(r[0]) for r in rows)
    lines = [f"{'series':<{name_w}}  {label_a:>14}  {label_b:>14}  {'delta':>14}"]
    for series, va, vb in rows:
        sa = "-" if va is None else f"{va:g}"
        sb = "-" if vb is None else f"{vb:g}"
        delta = "-" if va is None or vb is None else f"{vb - va:+g}"
        lines.append(f"{series:<{name_w}}  {sa:>14}  {sb:>14}  {delta:>14}")
    return "\n".join(lines)


def _replication_metrics(reg: MetricsRegistry, config, args) -> None:
    """Run the extra seeds (in parallel) and export their spread + profile.

    Seeds ``seed+1 .. seed+replications-1`` fan out across ``--jobs``
    worker processes; the registry gains ``repro_replication_*`` gauges
    (mean/std/min/max per summary metric) and merged sweep-profile totals,
    so ``--profile``-style accounting stays correct under parallelism.
    """
    from dataclasses import replace

    from repro.experiments.parallel import CellFailure, run_cells
    from repro.obs.profile import merge_profiles
    from repro.simulation.replication import _NUMERIC_FIELDS, MetricSpread

    configs = [
        replace(config, seed=config.seed + i) for i in range(args.replications)
    ]
    outcomes = run_cells(
        configs,
        jobs=args.jobs,
        profile=True,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    failures = [o for o in outcomes if isinstance(o, CellFailure)]
    for failure in failures:
        print(failure.describe(), file=sys.stderr)
        print(failure.traceback, file=sys.stderr)
    results = [o for o in outcomes if not isinstance(o, CellFailure)]
    summaries = [r.summarize() for r in results]

    reg.gauge(
        "repro_replication_runs", "Replications aggregated in this report."
    ).set(len(summaries))
    reg.gauge(
        "repro_replication_failures", "Replications that crashed."
    ).set(len(failures))
    for name in _NUMERIC_FIELDS:
        spread = MetricSpread.of([getattr(s, name) for s in summaries])
        for stat in ("mean", "std", "min", "max"):
            reg.gauge(
                "repro_replication_" + name,
                "Across-seed spread of a RunSummary metric.",
                stat=stat,
            ).set(getattr(spread, stat))
    merged = merge_profiles([r.profile for r in results if r.profile])
    reg.counter(
        "repro_replication_dispatched_events_total",
        "Engine events dispatched across all replications.",
    ).inc(merged.events)
    reg.gauge(
        "repro_replication_wall_seconds",
        "Callback CPU-seconds summed across all replications' workers.",
    ).set(merged.wall_s)


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
    # Imported lazily: the diff subcommand must work without the heavy
    # simulation stack (numpy/scipy) ever loading.
    from repro.simulation.config import scaled_config

    return scaled_config(
        args.algorithm,
        args.topology,
        n_peers=args.peers,
        n_queries=args.queries,
        seed=args.seed,
        use_physical_network=not args.no_physical_network,
    )


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
            collect_diagnostics=True,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    finally:
        if stream is not None:
            stream.close()

    registry = build_registry(result, run_labels={"seed": str(args.seed)})
    if args.replications > 1:
        _replication_metrics(registry, config, args)
    json_path = out_dir / "metrics.json"
    prom_path = out_dir / "metrics.prom"
    json_path.write_text(registry.to_json() + "\n")
    prom_path.write_text(registry.to_prometheus())

    print(f"wrote {json_path}", file=sys.stderr)
    print(f"wrote {prom_path}", file=sys.stderr)
    if args.trace:
        print(f"wrote {trace_path}", file=sys.stderr)
    summary = result.summarize()
    print(
        f"{summary.algorithm}/{summary.topology}: "
        f"success={summary.success_rate:.1%} "
        f"load={summary.load_mean_bpns:.1f} B/node/s"
    )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    # Degrade gracefully on JSON that is not a metrics registry export
    # (e.g. a telemetry.json or state.json was passed by mistake): name
    # the offending file instead of dying on a KeyError inside flatten().
    missing = [
        path
        for path, doc in ((args.a, a), (args.b, b))
        if not (isinstance(doc, dict) and isinstance(doc.get("metrics"), list))
    ]
    if missing:
        for path in missing:
            print(
                f"{path}: no 'metrics' section -- not a metrics.json "
                "registry export (see `report run`); nothing to diff",
                file=sys.stderr,
            )
        return 1
    print(render_diff(a, b, label_a=Path(args.a).stem, label_b=Path(args.b).stem))
    if args.tolerance is None:
        return 0  # informational diff, no gate
    rows = diff_flat(flatten(a), flatten(b))
    drifted = [
        series
        for series, va, vb in rows
        if va is None or vb is None or abs(vb - va) > args.tolerance
    ]
    if drifted:
        print(
            f"{len(drifted)} series drifted beyond tolerance {args.tolerance:g}",
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
    from dataclasses import replace

    from repro.experiments.parallel import CellFailure, run_cells
    from repro.obs.telemetry import merge_summaries

    config = _cell_config(args)
    if args.probe_interval is not None:
        config = replace(config, probe_interval_s=args.probe_interval)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    live = None
    if args.live:
        live = lambda msg: print(f"[live] {msg}", file=sys.stderr)  # noqa: E731
    configs = [
        replace(config, seed=config.seed + i) for i in range(args.replications)
    ]
    outcomes = run_cells(
        configs,
        jobs=args.jobs,
        telemetry=True,
        probes=args.probes,
        live=live,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    failures = [o for o in outcomes if isinstance(o, CellFailure)]
    for failure in failures:
        print(failure.describe(), file=sys.stderr)
        print(failure.traceback, file=sys.stderr)
    if failures:
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
    prom_path = out_dir / "telemetry.prom"
    registry = telemetry_registry(
        summary,
        run_labels={
            "algorithm": args.algorithm,
            "topology": args.topology,
            "seed": str(args.seed),
        },
    )
    prom_path.write_text(registry.to_prometheus())
    print(f"wrote {json_path}", file=sys.stderr)
    print(f"wrote {prom_path}", file=sys.stderr)

    print(
        f"{args.algorithm}/{args.topology} telemetry over "
        f"{summary.cells} cell(s), fingerprint {summary.fingerprint()}"
    )
    print()
    print(summary.format_window_table(max_rows=args.max_rows))
    print()
    print(summary.format_hotspots())

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
        "run", parents=[cell], help="run one experiment and export metrics"
    )
    run_p.add_argument(
        "--replications",
        type=int,
        default=1,
        help="extra seeds to aggregate into repro_replication_* metrics",
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

    diff_p = sub.add_parser("diff", help="diff two metrics.json reports")
    diff_p.add_argument("a")
    diff_p.add_argument("b")
    diff_p.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="gate mode: exit non-zero when any series differs by more "
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
    tel_p.add_argument(
        "--live",
        action="store_true",
        help="stream per-cell progress/hotspot status lines to stderr",
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
