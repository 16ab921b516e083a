"""Regenerate every paper figure in one command.

Usage::

    python -m repro.experiments.runall [--peers N] [--queries Q] [--seed S]
                                       [--jobs J] [--profile] [--telemetry]
                                       [--probes] [--live]
                                       [--output report.md]

Runs the full (algorithm x topology) grid once, renders all ten figures,
and writes a markdown report (tables + qualitative checks).  This is the
scriptable counterpart of ``pytest benchmarks/ --benchmark-only``.

``--jobs J`` fans the independent grid cells out across ``J`` worker
processes (``0`` = all cores; default 1 = serial).  Cells share the cached
physical substrate and every figure is bit-identical to a serial run --
all randomness flows from per-cell seeds (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments.figures import (
    ExperimentGrid,
    ExperimentScale,
    fig2_semantic_classes,
    fig3_node_interests,
    fig4_success_rate,
    fig5_response_time,
    fig6_search_cost,
    fig7_load_breakdown,
    fig8_avg_system_load,
    fig9_load_variation,
    fig10_realtime_load,
)

__all__ = ["main", "build_report"]


def _report_cells(scale: ExperimentScale) -> List[tuple]:
    """Every grid cell the report reads, including fig 7/10 extras."""
    cells = [
        (algo, topo)
        for algo in scale.algorithms
        for topo in scale.topologies
    ]
    cells.append(("asap_rw", "crawled"))  # figure 7
    for algo in ("flooding", "random_walk", "gsa", "asap_rw"):  # figure 10
        cells.append((algo, "crawled"))
    return list(dict.fromkeys(cells))


def build_report(
    scale: ExperimentScale,
    progress=None,
    grid: Optional[ExperimentGrid] = None,
    live=None,
) -> str:
    """Run everything and return the markdown report.

    Pass a ``grid`` to reuse (and afterwards inspect) the populated cells
    -- ``main`` does this to gate its exit code on audit violations.
    ``live`` is an optional ``callable(str)`` that receives one-line sweep
    status updates while cells execute (implies telemetry collection).
    """
    log = progress or (lambda _msg: None)
    grid = grid if grid is not None else ExperimentGrid(scale)
    if scale.jobs != 1 or live is not None:
        log(f"populating grid ({scale.jobs} jobs)")
        grid.prefetch(_report_cells(scale), progress=log, live=live)
    sections: List[str] = [
        "# ASAP reproduction report",
        "",
        f"- peers: {scale.n_peers}",
        f"- queries: {scale.n_queries}",
        f"- seed: {scale.seed}",
        f"- algorithms: {', '.join(scale.algorithms)}",
        f"- topologies: {', '.join(scale.topologies)}",
        "",
    ]

    log("figures 2-3 (workload)")
    for fig_fn in (fig2_semantic_classes, fig3_node_interests):
        sections += ["```", fig_fn(scale).format_table(), "```", ""]

    grid_figs = (
        fig4_success_rate,
        fig5_response_time,
        fig6_search_cost,
        fig8_avg_system_load,
        fig9_load_variation,
    )
    for fig_fn in grid_figs:
        log(fig_fn.__name__)
        sections += ["```", fig_fn(grid).format_table(), "```", ""]

    log("figure 7 (breakdown)")
    fig7 = fig7_load_breakdown(grid)
    sections += ["```", fig7.format_table(), "```", ""]

    log("figure 10 (real-time load)")
    fig10 = fig10_realtime_load(grid)
    sections += ["```", fig10.format_table(), "```", ""]

    # Qualitative shape checks mirrored from the benchmark assertions.
    checks: List[str] = []
    v4 = fig4_success_rate(grid).values
    v5 = fig5_response_time(grid).values
    v6 = fig6_search_cost(grid).values
    v8 = fig8_avg_system_load(grid).values

    def check(name: str, ok: bool) -> None:
        checks.append(f"- [{'x' if ok else ' '}] {name}")

    topos = list(scale.topologies)
    check(
        "ASAP response time >= 50% below flooding on every topology",
        all(v5["ASAP(RW)"][t] < 0.5 * v5["flooding"][t] for t in topos),
    )
    check(
        "ASAP search cost >= 30x below flooding on every topology",
        all(v6["ASAP(RW)"][t] * 30 <= v6["flooding"][t] for t in topos),
    )
    check(
        "ASAP(RW) success above random walk everywhere",
        all(v4["ASAP(RW)"][t] > v4["random_walk"][t] for t in topos),
    )
    check(
        "ASAP(RW) load below the random-walk baseline everywhere",
        all(v8["ASAP(RW)"][t] < v8["random_walk"][t] for t in topos),
    )
    check(
        "patch+refresh ads dominate full ads in ASAP(RW) load",
        fig7.patch_refresh_fraction > fig7.full_ad_fraction,
    )
    sections += ["## Shape checks", ""] + checks + [""]

    if scale.telemetry:
        from repro.obs import merge_summaries

        log("telemetry")
        sections += ["## Telemetry", ""]
        # The Figure 9 view from streaming sketches alone -- per-window
        # load and in-window hotspots for the warmed-up ASAP(RW) system,
        # no JSONL trace involved.
        focus = grid.result("asap_rw", "crawled")
        if focus.telemetry is not None:
            sections += [
                "Per-window load for `asap_rw/crawled` (streaming "
                "telemetry; the Figure 9 time axis):",
                "",
                "```",
                focus.telemetry.format_window_table(max_rows=12),
                "```",
                "",
                "```",
                focus.telemetry.format_hotspots(8),
                "```",
                "",
            ]
        rows = []
        for algo in scale.algorithms:
            tel = grid.result(algo, "crawled").telemetry
            if tel is not None:
                rows.append(f"  {algo:<12} {tel.load_std_bpns():>12.2f}")
        if rows:
            sections += [
                "Load variation from telemetry windows "
                "(std of per-window B/node/s on `crawled`):",
                "",
                "```",
                f"  {'algorithm':<12} {'load_std':>12}",
                *rows,
                "```",
                "",
            ]
        merged = merge_summaries(
            grid.result(algo, topo).telemetry
            for algo, topo in _report_cells(scale)
        )
        if merged is not None:
            sections += [
                "Sweep-wide hotspots (all cells merged, deterministic "
                f"input-order merge; fingerprint `{merged.fingerprint()}`):",
                "",
                "```",
                merged.format_hotspots(8),
                "```",
                "",
            ]

        from repro.obs.profile import peak_rss_mb

        memory_lines = [f"  peak RSS (sweep process)  {peak_rss_mb():>10.1f} MB"]
        focus_profile = getattr(focus, "profile", None)
        if focus_profile is not None and focus_profile.arena:
            a = focus_profile.arena
            memory_lines += [
                f"  cached (peer, source)     {a.get('rows_live', 0):>10} pairs",
                f"  dense ads-state size      "
                f"{a.get('pool_bytes', 0) / 1e6:>10.1f} MB",
            ]
        sections += [
            "Memory (ads caches are one dense peer x source state, "
            "Theta(n^2) bytes whatever the fill):",
            "",
            "```",
            *memory_lines,
            "```",
            "",
        ]

    if scale.probes:
        from repro.obs.probes import merge_probe_summaries

        log("protocol state")
        sections += ["## Protocol state", ""]
        # The state-level view of the paper's pre-positioning claim: ad
        # coverage, staleness and cache health over simulated time for the
        # warmed-up ASAP(RW) system (repro.obs.probes).
        focus = grid.result("asap_rw", "crawled")
        if focus.probes is not None and focus.probes.ticks:
            sections += [
                "State snapshots for `asap_rw/crawled` (ad coverage, "
                "staleness, cache health per probe tick):",
                "",
                "```",
                focus.probes.format_state_table(max_rows=12),
                "```",
                "",
            ]
        rows = []
        for algo in scale.algorithms:
            probes = grid.result(algo, "crawled").probes
            if probes is None:
                continue
            head = probes.headline()
            if head["coverage_fraction"] is None:
                continue
            rows.append(
                f"  {algo:<12} {head['coverage_fraction']:>8.1%} "
                f"{head['replication_p50'] or 0.0:>9.1f} "
                f"{head['age_p50_s'] or 0.0:>9.1f} "
                f"{head['fp_mean'] or 0.0:>10.2e}"
            )
        if rows:
            sections += [
                "Final-tick state headline per ASAP variant on `crawled`:",
                "",
                "```",
                f"  {'algorithm':<12} {'cover%':>8} {'repl p50':>9} "
                f"{'age p50':>9} {'fp mean':>10}",
                *rows,
                "```",
                "",
            ]
        merged = merge_probe_summaries(
            grid.result(algo, topo).probes
            for algo, topo in _report_cells(scale)
        )
        if merged is not None:
            sections += [
                "Sweep-wide probe summary (all cells merged, deterministic "
                f"input-order merge; fingerprint `{merged.fingerprint()}`):",
                "",
                f"- cells: {merged.cells}, ticks: {len(merged.ticks)}, "
                f"interval: {merged.interval_s:.0f}s",
                "",
            ]

    if scale.audit:
        log("audit")
        sections += ["## Audit", ""]
        any_violation = False
        for algo, topo in _report_cells(scale):
            result = grid.result(algo, topo)
            report = result.audit
            if report is None:
                continue
            status = "PASS" if report.ok else "FAIL"
            sections.append(
                f"- `{result.algorithm}/{topo}` {status} "
                f"fingerprint `{result.fingerprint}`"
            )
            for v in report.violations:
                any_violation = True
                sections.append(f"  - [{v.check}] {v.message}")
        sections.append("")
        if any_violation:
            sections += ["**Audit violations detected.**", ""]

    if scale.profile:
        from repro.obs.profile import merge_profiles

        log("run profiles")
        sections += ["## Run profiles", ""]
        profiles = []
        for algo in scale.algorithms:
            for topo in scale.topologies:
                result = grid.result(algo, topo)
                if result.profile is None:
                    continue
                profiles.append(result.profile)
                sections += [
                    f"### {result.algorithm} / {topo}",
                    "",
                    "```",
                    result.profile.format_table(),
                    "```",
                    "",
                ]
        if profiles:
            # Per-cell profiles are exact wherever the cell ran; the merge
            # totals CPU-seconds across workers, so the sweep-level view
            # stays correct under --jobs > 1.
            sections += [
                "### sweep total (all cells merged)",
                "",
                "```",
                merge_profiles(profiles).format_table(),
                "```",
                "",
            ]
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peers", type=int, default=400)
    parser.add_argument("--queries", type=int, default=800)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for grid cells (0 = all cores, default 1)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile every run and append per-cell profiles to the report",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run the invariant auditor on every cell and append an audit "
        "section; exit non-zero if any cell has violations",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect streaming telemetry in every cell and append a "
        "telemetry section (per-window load + hotspots, no trace files)",
    )
    parser.add_argument(
        "--probes",
        action="store_true",
        help="record protocol-state snapshots in every cell and append a "
        "state section (ad coverage, staleness, cache health per tick)",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="stream a live sweep status line (per-cell progress and "
        "current hotspots) to stderr while cells run; implies --telemetry",
    )
    args = parser.parse_args(argv)

    scale = ExperimentScale(
        n_peers=args.peers,
        n_queries=args.queries,
        seed=args.seed,
        profile=args.profile,
        audit=args.audit,
        telemetry=args.telemetry or args.live,
        probes=args.probes,
        jobs=args.jobs,
    )
    start = time.time()
    grid = ExperimentGrid(scale)
    live = None
    if args.live:
        live = lambda msg: print(f"[live] {msg}", file=sys.stderr)  # noqa: E731
    report = build_report(
        scale,
        progress=lambda msg: print(f"[runall] {msg}", file=sys.stderr),
        grid=grid,
        live=live,
    )
    elapsed = time.time() - start
    report += f"\n_generated in {elapsed:.0f}s_\n"
    if args.output is not None:
        args.output.write_text(report)
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(report)
    if args.audit:
        bad = [
            f"{r.algorithm}/{r.topology}"
            for r in grid._results.values()
            if r.audit is not None and not r.audit.ok
        ]
        if bad:
            print(
                f"audit violations in {len(bad)} cell(s): {', '.join(bad)}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
