"""Process-pool fan-out for independent experiment cells.

The paper's evaluation is a grid of *independent* trace replays -- every
(algorithm, topology, seed) cell derives all randomness from its own
:class:`~repro.simulation.config.RunConfig` seed, so cells can execute in
any order, on any worker, and still produce bit-identical results.  This
module exploits that:

* :func:`run_cells` executes a sequence of configs across ``jobs`` worker
  processes and merges results **deterministically**: the returned list is
  ordered by input position regardless of completion order, and every value
  is exactly what the serial path would have produced (workers run the same
  :func:`~repro.simulation.runner.run_experiment`; pickling preserves float
  bits).
* Workers are forked where the platform allows it, so they inherit the
  parent's already-built :mod:`repro.network.substrate` cache through
  copy-on-write memory instead of rebuilding the transit-stub network and
  APSP tables per cell.  :func:`run_cells` pre-warms the cache in the
  parent for exactly the substrates the configs will need.
* A failing cell is **isolated**: it reports a :class:`CellFailure`
  carrying its config and formatted traceback in its slot of the result
  list, and sibling cells complete normally.
* ``jobs=1`` (or a single cell) falls back to a plain serial loop in the
  calling process -- no pool, no pickling, same failure isolation.

What travels back from a worker is the full :class:`~repro.simulation.
results.RunResult` -- summary inputs, bandwidth ledger, optional
:class:`~repro.obs.profile.RunProfile` -- all plain data, so ``--profile``
accounting under parallelism is exact per cell and mergeable in the parent
(:func:`repro.obs.profile.merge_profiles`).
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import tempfile
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.network.substrate import get_substrate
from repro.simulation.config import RunConfig
from repro.simulation.results import RunResult
from repro.simulation.runner import run_experiment

__all__ = [
    "CellFailure",
    "CellOutcome",
    "cell_trace_name",
    "resolve_jobs",
    "run_cells",
]


@dataclass(frozen=True)
class CellFailure:
    """One cell's crash report: which config failed and why."""

    config: RunConfig
    error: str  # repr of the raised exception
    traceback: str  # full formatted traceback from the worker

    def describe(self) -> str:
        return (
            f"{self.config.algorithm}/{self.config.topology} "
            f"(seed {self.config.seed}) failed: {self.error}"
        )


CellOutcome = Union[RunResult, CellFailure]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None`` -> 1, ``<= 0`` -> all cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def cell_trace_name(config: RunConfig) -> str:
    """Deterministic per-cell trace filename inside a ``trace_dir``."""
    return f"{config.algorithm}-{config.topology}-seed{config.seed}.jsonl"


def cell_label(config: RunConfig) -> str:
    """Short human-readable cell identity for telemetry and live status."""
    return f"{config.algorithm}/{config.topology}/seed{config.seed}"


def _run_cell(
    config: RunConfig,
    profile: bool,
    audit: bool = False,
    trace_dir: Optional[str] = None,
    telemetry: bool = False,
    status_path: Optional[str] = None,
    status_fn: Optional[Callable[[Dict], None]] = None,
    probes: bool = False,
) -> CellOutcome:
    """Worker body: run one cell, trading exceptions for a CellFailure.

    With ``trace_dir``, the cell's trace is streamed to its own JSONL
    file (``cell_trace_name``), so parallel workers never share a stream;
    with ``audit``, the returned result carries the cell's
    :class:`~repro.obs.audit.AuditReport` and fingerprint (an audit
    *violation* is a finding on a successful run, not a CellFailure).
    With ``telemetry``, the cell accumulates streaming telemetry and the
    result carries its :class:`~repro.obs.telemetry.TelemetrySummary`;
    ``status_path`` additionally streams live status snapshots to that
    file (read by the parent's ``--live`` polling loop; the snapshots are
    transient and never affect the returned summary).
    """
    try:
        tel = False
        if telemetry or status_path is not None or status_fn is not None:
            from repro.obs.telemetry import Telemetry

            tel = Telemetry(
                status_path=status_path,
                status_fn=status_fn,
                label=cell_label(config),
            )
        with contextlib.ExitStack() as stack:
            # ``audit`` alone lets run_experiment keep its own tracer.
            tracer = None
            if trace_dir is not None:
                from repro.obs.trace import Tracer

                path = os.path.join(trace_dir, cell_trace_name(config))
                tracer = Tracer(stream=stack.enter_context(open(path, "w")))
            return run_experiment(
                config,
                tracer=tracer,
                profile=profile,
                audit=audit,
                telemetry=tel,
                probes=probes,
            )
    except Exception as exc:
        return CellFailure(
            config=config, error=repr(exc), traceback=traceback.format_exc()
        )


def _prewarm_substrates(configs: Sequence[RunConfig]) -> None:
    """Build each distinct substrate once in the parent before forking."""
    seen = set()
    for config in configs:
        if config.use_physical_network and config.seed not in seen:
            seen.add(config.seed)
            get_substrate(seed=config.seed)


def run_cells(
    configs: Sequence[RunConfig],
    jobs: Optional[int] = 1,
    *,
    profile: bool = False,
    audit: bool = False,
    trace_dir: Optional[str] = None,
    telemetry: bool = False,
    probes: bool = False,
    live: Optional[Callable[[str], None]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[CellOutcome]:
    """Run independent cells, serially or across a process pool.

    Returns one entry per config, **in input order**: a
    :class:`~repro.simulation.results.RunResult` on success or a
    :class:`CellFailure` on error.  Output is bit-identical to running the
    same configs serially (all randomness flows from per-config seeds).

    ``audit=True`` runs the invariant auditor in each cell (the report
    travels back on the result, like profiles do); ``trace_dir`` streams
    each cell's trace to its own deterministically named JSONL file in
    that directory (created if missing).

    ``telemetry=True`` collects streaming telemetry per cell; each result
    carries a :class:`~repro.obs.telemetry.TelemetrySummary` whose merge
    (in input order) is bit-identical whether the cells ran serially or
    across workers.  ``probes=True`` does the same for protocol-state
    snapshots (each result carries a
    :class:`~repro.obs.probes.ProbeSummary`, same input-order merge
    guarantee).  ``live`` is an optional ``callable(str)`` receiving a
    one-line status rendering (per-cell progress and current hotspots,
    streamed out of worker processes through per-cell snapshot files);
    it implies telemetry collection.
    """
    configs = list(configs)
    n_jobs = min(resolve_jobs(jobs), len(configs))
    log = progress or (lambda _msg: None)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_dir = str(trace_dir)
    telemetry = telemetry or live is not None

    if n_jobs <= 1:
        results: List[CellOutcome] = []
        for i, config in enumerate(configs):
            status_fn = None
            if live is not None:
                status_fn = (
                    lambda snap, _i=i, _n=len(configs): live(
                        f"[{_i + 1}/{_n}] {_format_snapshot(snap)}"
                    )
                )
            outcome = _run_cell(
                config, profile, audit, trace_dir, telemetry, None, status_fn,
                probes,
            )
            _log_outcome(log, i, len(configs), outcome)
            results.append(outcome)
        return results

    _prewarm_substrates(configs)
    # Fork keeps the inherited substrate cache; platforms without fork
    # (Windows, some macOS setups) fall back to the default start method,
    # where workers rebuild their own substrate once and then share it
    # across the cells they execute.
    mp_context = None
    if "fork" in multiprocessing.get_all_start_methods():
        mp_context = multiprocessing.get_context("fork")
    status_dir = tempfile.mkdtemp(prefix="repro-live-") if live is not None else None
    slots: List[Optional[CellOutcome]] = [None] * len(configs)
    try:
        with ProcessPoolExecutor(max_workers=n_jobs, mp_context=mp_context) as pool:
            future_index = {
                pool.submit(
                    _run_cell, config, profile, audit, trace_dir, telemetry,
                    os.path.join(status_dir, f"cell{i}.json")
                    if status_dir is not None
                    else None,
                    None,
                    probes,
                ): i
                for i, config in enumerate(configs)
            }
            pending = set(future_index)
            done_count = 0
            while pending:
                # With a live sink, poll on a short timeout so in-flight
                # cells stream status between completions.
                done, pending = wait(
                    pending,
                    timeout=1.0 if live is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    i = future_index[future]
                    # _run_cell converts cell exceptions to CellFailure; an
                    # exception here means the pool itself broke (e.g. a
                    # worker was killed), which is not attributable to one
                    # cell.
                    slots[i] = future.result()
                    done_count += 1
                    _log_outcome(log, done_count - 1, len(configs), slots[i])
                if live is not None:
                    line = _render_live_line(
                        status_dir, future_index, slots, done_count, len(configs)
                    )
                    if line:
                        live(line)
    finally:
        if status_dir is not None:
            _cleanup_dir(status_dir)
    return [outcome for outcome in slots if outcome is not None]


def _format_snapshot(snap: Dict) -> str:
    """One cell's status snapshot as a compact human-readable fragment."""
    hot = ",".join(str(peer) for peer, _count in snap.get("hot_peers", [])[:3])
    return (
        f"{snap.get('label', '?')} t={snap.get('t', 0.0):.0f}s "
        f"ev={snap.get('engine_events', 0)} q={snap.get('queries', 0)}"
        + (f" hot=[{hot}]" if hot else "")
    )


def _render_live_line(
    status_dir: str,
    future_index: Dict,
    slots: List[Optional[CellOutcome]],
    done_count: int,
    total: int,
) -> str:
    """Compose the sweep-wide live status line from per-cell snapshots."""
    running = []
    for future, i in sorted(future_index.items(), key=lambda kv: kv[1]):
        if slots[i] is not None:
            continue
        path = os.path.join(status_dir, f"cell{i}.json")
        try:
            with open(path) as fh:
                running.append(_format_snapshot(json.load(fh)))
        except (OSError, ValueError):
            continue  # not started yet, or snapshot mid-replace
    parts = [f"{done_count}/{total} cells done"]
    if running:
        parts.append("; ".join(running[:3]))
        if len(running) > 3:
            parts.append(f"(+{len(running) - 3} more)")
    return " | ".join(parts)


def _cleanup_dir(path: str) -> None:
    import shutil

    shutil.rmtree(path, ignore_errors=True)


def _log_outcome(
    log: Callable[[str], None], done: int, total: int, outcome: CellOutcome
) -> None:
    if isinstance(outcome, CellFailure):
        log(f"[{done + 1}/{total}] {outcome.describe()}")
    else:
        log(
            f"[{done + 1}/{total}] {outcome.algorithm}/{outcome.topology} done"
        )
