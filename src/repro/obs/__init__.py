"""Observability for the simulation stack: one seam, one account.

The simulator reports its **actions** -- query resolved, ad delivered, ads
exchange, repair, confirmation, churn, engine dispatch -- to a single
:class:`~repro.obs.instrument.Instrumentation`; every host carries one
``obs`` attribute (``None`` unless the run is observed) and nothing else.
What row an action is, and which peer telemetry charges, is decided in
:mod:`repro.obs.instrument`, once.  Behind the seam, all opt-in:

* :mod:`repro.obs.actions` -- the run's account: one typed, chunked column
  table per action kind and the sequence of ``(kind, record id)`` that
  interleaves them; a ``--trace`` JSONL file (optionally gzip-compressed,
  ``trace.jsonl.gz``) is a rendering of the tables and parses back into
  them;
* :mod:`repro.obs.profile` -- per-subsystem / per-phase run accounting,
  attached to :class:`repro.simulation.results.RunResult` as a
  :class:`RunProfile`;
* :mod:`repro.obs.telemetry` -- exact load telemetry: windowed load
  series, hot peers and links, and quantile digests, all reduced from one
  table of the run's charges and the run's outcomes.

Beside it, reading the run rather than listening to it:

* :mod:`repro.obs.probes` -- periodic protocol-*state* snapshots reduced
  from the dense ads state: per-source ad coverage, staleness digests,
  measured Bloom FP rate and cache health, bit-identical across
  serial/parallel execution;
* :mod:`repro.obs.audit` -- vectorised reductions of the action tables,
  live or parsed from a file: the lifecycle summary, the runtime invariant
  checks and the deterministic run fingerprint;
* :mod:`repro.obs.report` -- ``python -m repro.obs.report run`` replays a
  cell under N seeds in one ``run_cells`` call with ``runall``'s observer
  flags and writes ``run.json``; ``diff`` compares two JSON documents leaf
  by leaf and ``analyze`` summarises a trace.

Telemetry and probes each end as a JSON summary document per cell, which
``RunResult`` carries; ``run.json`` holds the list of its seeds'
documents in seed order, and one :func:`fingerprint` digests either.
"""

from repro.obs.actions import (
    TRACE_RECORDS,
    ActionLog,
    open_text_maybe_gzip,
    read_trace,
    write_trace,
)
from repro.obs.audit import AuditReport, AuditViolation
from repro.obs.instrument import Instrumentation
from repro.obs.probes import (
    PROBE_SCHEMA_VERSION,
    ProbeRecorder,
    snapshot_backend,
    snapshot_state,
)
from repro.obs.profile import (
    PhaseStats,
    Profiler,
    RunProfile,
    merge_profiles,
    subsystem_of,
)
from repro.obs.telemetry import (
    Telemetry,
    digest,
    fingerprint,
    format_hotspots,
    format_window_table,
    load_std_bpns,
    quantile_nearest_rank,
)

__all__ = [
    "ActionLog", "AuditReport", "AuditViolation", "Instrumentation",
    "PROBE_SCHEMA_VERSION", "PhaseStats", "ProbeRecorder", "Profiler",
    "RunProfile", "TRACE_RECORDS", "Telemetry", "digest", "fingerprint",
    "format_hotspots", "format_window_table", "load_std_bpns",
    "merge_profiles", "open_text_maybe_gzip", "quantile_nearest_rank",
    "read_trace", "snapshot_backend", "snapshot_state", "subsystem_of",
    "write_trace",
]
