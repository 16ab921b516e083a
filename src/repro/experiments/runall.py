"""Regenerate the whole evaluation in one command.

Usage::

    python -m repro.experiments.runall [--peers N] [--queries Q] [--seed S]
                                       [--jobs J] [--profile] [--telemetry]
                                       [--probes] [--audit]
                                       [--output report.md]

Walks the one table of entries (:data:`repro.experiments.campaign.ENTRIES`:
Figures 2-10 and six ablations): the union of every entry's cells goes
through ``run_cells`` once, every entry is rendered, and every claim the
paper makes of a table is listed ``[x]`` (holds), ``[ ]`` (does not) or
``n/a`` (it names an algorithm or overlay outside the scale).  The claims
are calibrated at the default 400 x 800 scale and do not touch the exit
code -- ``tests/test_campaign_claims.py`` and CI enforce them there.
``--output report.md`` also writes the same tables as ``report.csv``
(``figure, series, x, y`` rows); the report body is deterministic, so a
committed report can be compared byte for byte (``benchmarks/results/``).

``--jobs J`` fans the independent cells out across ``J`` worker processes
(``0`` = all cores; default 1 = serial).  Cells share the cached physical
substrate and every table is bit-identical to a serial run -- all
randomness flows from per-cell seeds (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.ablations import BASE as ABLATION_BASE
from repro.experiments.campaign import ENTRIES, check_claims, run_campaign
from repro.experiments.export import AnyFigure, figures_to_csv, read_tables
from repro.experiments.figures import ExperimentGrid, ExperimentScale
from repro.obs import fingerprint
from repro.simulation.config import RunConfig

__all__ = ["main", "render_report", "write_report"]


def _cell_name(config: RunConfig, scale: ExperimentScale) -> str:
    """``algorithm/topology``; an ablation cell also says what it varies."""
    name = f"{config.algorithm}/{config.topology}"
    if config == scale.config(config.algorithm, config.topology):
        return name
    varied = [
        f"{f.name}={getattr(config.asap, f.name)}"
        for f in fields(config.asap)
        if getattr(config.asap, f.name) != getattr(ABLATION_BASE.asap, f.name)
    ]
    return f"{name} [{config.n_peers} peers, {', '.join(varied) or 'default'}]"


def render_report(grid: ExperimentGrid, figures: Dict[str, AnyFigure]) -> str:
    """The markdown report of a finished campaign (``run_campaign``'s result)."""
    scale = grid.scale
    cells = grid.results()
    in_scale = set(scale.cells())
    sections: List[str] = [
        "# ASAP reproduction report",
        "",
        f"- peers: {scale.n_peers}",
        f"- queries: {scale.n_queries}",
        f"- seed: {scale.seed}",
        f"- algorithms: {', '.join(scale.algorithms)}",
        f"- topologies: {', '.join(scale.topologies)}",
        f"- ablations: fixed {ABLATION_BASE.n_peers} peers / "
        f"{ABLATION_BASE.trace.n_queries} queries, whatever the scale above",
        "",
    ]
    for entry in ENTRIES:
        sections += ["```", figures[entry.name].format_table(), "```", ""]
        added = [
            f"{c.algorithm}/{c.topology}"
            for c in entry.cells(scale)
            if c not in in_scale and c == scale.config(c.algorithm, c.topology)
        ]
        if added:
            sections += [
                f"_{entry.name} added cells outside the scale's grid: "
                f"{', '.join(added)}_",
                "",
            ]

    tables = read_tables(figures_to_csv(figures.values()))
    marks = {True: "- [x]", False: "- [ ]", None: "- n/a"}
    sections += [
        "## Claims",
        "",
        "_Thresholds are calibrated at the default 400 x 800 scale; `n/a`: the "
        "claim names an algorithm or overlay this scale did not run._",
        "",
    ]
    sections += [f"{marks[held]} {line}" for line, held in check_claims(tables, scale)]
    sections.append("")

    # The campaign's cells on the crawled overlay, by algorithm id (the
    # telemetry and protocol-state sections compare algorithms there).
    on_crawled = {
        algo: cells[scale.config(algo, "crawled")]
        for algo in scale.algorithms
        if scale.config(algo, "crawled") in cells
    }
    focus = cells[scale.config("asap_rw", "crawled")]  # Figure 7's cell
    if scale.telemetry:
        from repro.obs import format_hotspots, format_window_table, load_std_bpns

        sections += ["## Telemetry", ""]
        # The Figure 9 view from telemetry alone -- per-window load and
        # in-window hot peers for the warmed-up ASAP(RW) system, no JSONL
        # trace involved.
        if focus.telemetry is not None:
            sections += [
                "Per-window load for `asap_rw/crawled` (telemetry; the "
                "Figure 9 time axis):",
                "",
                "```",
                format_window_table(focus.telemetry, max_rows=12),
                "```",
                "",
                "```",
                format_hotspots(focus.telemetry, 8),
                "```",
                "",
            ]
        rows = []
        for algo, result in on_crawled.items():
            if result.telemetry is not None:
                rows.append(f"  {algo:<12} {load_std_bpns(result.telemetry):>12.2f}")
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

        from repro.obs.profile import peak_rss_mb

        memory_lines = [f"  peak RSS (sweep process)  {peak_rss_mb():>10.1f} MB"]
        focus_profile = getattr(focus, "profile", None)
        if focus_profile is not None and focus_profile.state:
            a = focus_profile.state
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
        from repro.obs.probes import format_state_table, headline

        sections += ["## Protocol state", ""]
        # The state-level view of the paper's pre-positioning claim: ad
        # coverage, staleness and cache health over simulated time for the
        # warmed-up ASAP(RW) system (repro.obs.probes).
        if focus.probes is not None and focus.probes["ticks"]:
            sections += [
                "State snapshots for `asap_rw/crawled` (ad coverage, "
                "staleness, cache health per probe tick):",
                "",
                "```",
                format_state_table(focus.probes, max_rows=12),
                "```",
                "",
            ]
        rows = []
        for algo, result in on_crawled.items():
            probes = result.probes
            if probes is None:
                continue
            head = headline(probes)
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
        docs = [r.probes for r in cells.values() if r.probes is not None]
        if docs:
            sections += [
                "Sweep-wide probe documents (every cell's, in input order; "
                f"fingerprint `{fingerprint(docs)}`):",
                "",
                f"- cells: {len(docs)}, ticks: "
                f"{sum(len(doc['ticks']) for doc in docs)}, "
                f"interval: {docs[0]['interval_s']:.0f}s",
                "",
            ]

    if scale.audit:
        sections += ["## Audit", ""]
        any_violation = False
        for config, result in cells.items():
            report = result.audit
            if report is None:
                continue
            status = "PASS" if report.ok else "FAIL"
            sections.append(
                f"- `{_cell_name(config, scale)}` {status} "
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

        sections += ["## Run profiles", ""]
        profiles = []
        for config, result in cells.items():
            if result.profile is None:
                continue
            profiles.append(result.profile)
            sections += [
                f"### {_cell_name(config, scale)}",
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


def write_report(output: Path, grid: ExperimentGrid, figures: Dict[str, AnyFigure]) -> Path:
    """Write the markdown report to ``output`` and its tables beside it as ``.csv``."""
    output.write_text(render_report(grid, figures) + "\n")
    csv_path = output.with_suffix(".csv")
    csv_path.write_text(figures_to_csv(figures.values()))
    return csv_path


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
    args = parser.parse_args(argv)

    scale = ExperimentScale(
        n_peers=args.peers,
        n_queries=args.queries,
        seed=args.seed,
        profile=args.profile,
        audit=args.audit,
        telemetry=args.telemetry,
        probes=args.probes,
        jobs=args.jobs,
    )
    try:
        scale.cells()  # a nonsense cell is a usage error, not a traceback
    except ValueError as exc:
        parser.error(str(exc))
    start = time.time()
    grid = ExperimentGrid(scale)
    figures = run_campaign(
        grid, progress=lambda msg: print(f"[runall] {msg}", file=sys.stderr)
    )
    # Wall-clock goes to stderr: the report body stays byte-comparable.
    print(f"[runall] generated in {time.time() - start:.0f}s", file=sys.stderr)
    if args.output is not None:
        csv_path = write_report(args.output, grid, figures)
        print(f"report written to {args.output} and {csv_path}", file=sys.stderr)
    else:
        print(render_report(grid, figures))
    if args.audit:
        bad = [
            _cell_name(config, scale)
            for config, r in grid.results().items()
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
