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
  parent's already-built :mod:`repro.network.substrate` caches through
  copy-on-write memory instead of rebuilding the transit-stub network and
  APSP tables, or a workload several cells share, per cell.
  :func:`run_cells` pre-warms the caches in the parent for exactly the
  substrates the configs will need and the workloads two or more of them
  replay.
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
import multiprocessing
import os
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.network.substrate import get_substrate, get_workload
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
    """Short human-readable cell identity for a summary document."""
    return f"{config.algorithm}/{config.topology}/seed{config.seed}"


def _run_cell(
    config: RunConfig,
    profile: bool,
    audit: bool = False,
    trace_dir: Optional[str] = None,
    telemetry: bool = False,
    probes: bool = False,
) -> CellOutcome:
    """Worker body: run one cell, trading exceptions for a CellFailure.

    With ``trace_dir``, the cell's trace is rendered to its own JSONL
    file (``cell_trace_name``), so parallel workers never share a file;
    with ``audit``, the returned result carries the cell's
    :class:`~repro.obs.audit.AuditReport` and fingerprint (an audit
    *violation* is a finding on a successful run, not a CellFailure).
    The action tables stay in the worker.  The result's telemetry and
    probe summaries (``telemetry``, ``probes``) are labelled with the cell.
    """
    try:
        result = run_experiment(
            config,
            trace_path=(
                None if trace_dir is None
                else os.path.join(trace_dir, cell_trace_name(config))
            ),
            profile=profile,
            audit=audit,
            telemetry=telemetry,
            probes=probes,
        )
        result.actions = None
        for doc in (result.telemetry, result.probes):
            if doc is not None:
                doc["label"] = cell_label(config)
        return result
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


def _prewarm_workloads(configs: Sequence[RunConfig]) -> None:
    """Build in the parent each workload that more than one cell replays,
    as many as the cache keeps.

    A workload only one cell needs is left to its worker, so a sweep over
    seeds still synthesises in parallel, and so is one the cache would
    evict before the fork.  One that cannot be built is left too: each of
    its cells then reports the error as a CellFailure.
    """
    keys = Counter((c.edonkey, c.trace, c.seed) for c in configs)
    shared = [key for key, cells in keys.items() if cells > 1]
    for key in shared[: get_workload.cache_info().maxsize]:
        with contextlib.suppress(Exception):
            get_workload(*key)


def run_cells(
    configs: Sequence[RunConfig],
    jobs: Optional[int] = 1,
    *,
    profile: bool = False,
    audit: bool = False,
    trace_dir: Optional[str] = None,
    telemetry: bool = False,
    probes: bool = False,
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

    ``telemetry=True`` collects load telemetry per cell and
    ``probes=True`` protocol-state snapshots; each result carries its
    labelled summary document, so the input-order list of them is
    bit-identical whether the cells ran serially or across workers.
    ``progress`` is an optional ``callable(str)`` receiving one line per
    finished cell.
    """
    configs = list(configs)
    n_jobs = min(resolve_jobs(jobs), len(configs))
    log = progress or (lambda _msg: None)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        trace_dir = str(trace_dir)

    if n_jobs <= 1:
        results: List[CellOutcome] = []
        for i, config in enumerate(configs):
            outcome = _run_cell(config, profile, audit, trace_dir, telemetry, probes)
            _log_outcome(log, i, len(configs), outcome)
            results.append(outcome)
        return results

    _prewarm_substrates(configs)
    _prewarm_workloads(configs)
    # Fork keeps the inherited caches; platforms without fork
    # (Windows, some macOS setups) fall back to the default start method,
    # where workers rebuild their own substrate once and then share it
    # across the cells they execute.
    mp_context = None
    if "fork" in multiprocessing.get_all_start_methods():
        mp_context = multiprocessing.get_context("fork")
    slots: List[Optional[CellOutcome]] = [None] * len(configs)
    with ProcessPoolExecutor(max_workers=n_jobs, mp_context=mp_context) as pool:
        future_index = {
            pool.submit(
                _run_cell, config, profile, audit, trace_dir, telemetry, probes
            ): i
            for i, config in enumerate(configs)
        }
        for done, future in enumerate(as_completed(future_index)):
            i = future_index[future]
            # _run_cell converts cell exceptions to CellFailure; an
            # exception here means the pool itself broke (e.g. a worker was
            # killed), which is not attributable to one cell.
            slots[i] = future.result()
            _log_outcome(log, done, len(configs), slots[i])
    return [outcome for outcome in slots if outcome is not None]


def _log_outcome(
    log: Callable[[str], None], done: int, total: int, outcome: CellOutcome
) -> None:
    if isinstance(outcome, CellFailure):
        log(f"[{done + 1}/{total}] {outcome.describe()}")
    else:
        log(
            f"[{done + 1}/{total}] {outcome.algorithm}/{outcome.topology} done"
        )
