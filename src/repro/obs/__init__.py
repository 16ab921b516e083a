"""Observability for the simulation stack: one seam, several sinks.

The simulator reports its **actions** -- query resolved, ad delivered, ads
exchange, repair, confirmation, churn, engine dispatch -- to a single
:class:`~repro.obs.instrument.Instrumentation`; every host carries one
``obs`` attribute (``None`` unless the run is observed) and nothing else.
What a trace record looks like, and which peer telemetry charges, is
decided in :mod:`repro.obs.instrument`, once.  Behind the seam, all opt-in:

* :mod:`repro.obs.trace`   -- structured event/span tracing: each record
  goes to the tracer's sinks as it completes -- a JSONL file (optionally
  gzip-compressed, ``trace.jsonl.gz``), the auditor's fold -- and is kept
  nowhere;
* :mod:`repro.obs.profile` -- per-subsystem / per-phase run accounting,
  attached to :class:`repro.simulation.results.RunResult` as a
  :class:`RunProfile`;
* :mod:`repro.obs.telemetry` -- exact load telemetry: windowed load
  series, hot peers and links, and quantile digests, all reduced from one
  table of the run's charges.

Beside it, reading the run rather than listening to it:

* :mod:`repro.obs.probes` -- periodic protocol-*state* snapshots reduced
  from the dense ads state: per-source ad coverage, staleness digests,
  measured Bloom FP rate and cache health, bit-identical across
  serial/parallel execution;
* :mod:`repro.obs.audit` -- one streaming fold over a trace, fed live by
  the tracer or from a file: the lifecycle summary, the runtime invariant
  checks and the deterministic run fingerprint;
* :mod:`repro.obs.report` -- ``python -m repro.obs.report run`` replays a
  cell under N seeds in one ``run_cells`` call with ``runall``'s observer
  flags and writes ``run.json``; ``diff`` compares two JSON documents leaf
  by leaf and ``analyze`` summarises a trace.

Telemetry and probes each end as a JSON summary document per cell, which
``RunResult`` carries; ``run.json`` holds the list of its seeds'
documents in seed order, and one :func:`fingerprint` digests either.
"""

from repro.obs.audit import AuditReport, AuditViolation, TraceFold
from repro.obs.instrument import TRACE_RECORDS, Instrumentation
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
from repro.obs.trace import (
    Span,
    TraceRecord,
    Tracer,
    jsonl_writer,
    open_text_maybe_gzip,
    read_trace,
    read_trace_lines,
)

__all__ = [
    "AuditReport",
    "AuditViolation",
    "Instrumentation",
    "PROBE_SCHEMA_VERSION",
    "PhaseStats",
    "ProbeRecorder",
    "Profiler",
    "RunProfile",
    "Span",
    "TRACE_RECORDS",
    "Telemetry",
    "TraceFold",
    "TraceRecord",
    "Tracer",
    "digest",
    "fingerprint",
    "format_hotspots",
    "format_window_table",
    "jsonl_writer",
    "load_std_bpns",
    "merge_profiles",
    "open_text_maybe_gzip",
    "quantile_nearest_rank",
    "snapshot_backend",
    "snapshot_state",
    "read_trace",
    "read_trace_lines",
    "subsystem_of",
]
