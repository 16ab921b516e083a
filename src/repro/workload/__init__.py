"""Workload synthesis: eDonkey-like content distribution and query traces.

The paper drives its simulator with a synthetic trace rebuilt from an
eDonkey content-distribution snapshot (Section IV-B).  That snapshot is not
publicly available, so this subpackage synthesises a distribution matching
every statistic the paper states, then lays down the same event mix:

* :mod:`repro.workload.content` -- documents, keywords, and the mutable
  global content index (who holds what, inverted keyword index);
* :mod:`repro.workload.interests` -- the 14 semantic classes, their skewed
  popularity, node-interest assignment (free-riders get random interests,
  sharers' interests are the classes of their own content) and the
  interest-clustering measurement Figure 3 reports;
* :mod:`repro.workload.edonkey` -- the content distribution: ~1.28 copies
  per document, 89% single-copy, interest-clustered replica placement;
* :mod:`repro.workload.sampling` -- the one weighted sampler: cached
  probability tables and draws that are ``Generator.choice`` draw for draw;
* :mod:`repro.workload.trace` -- trace event types and containers;
* :mod:`repro.workload.generator` -- chronological trace construction:
  30,000 Poisson(lambda=8) queries, 10% followed by content changes, 1,000
  joins + 1,000 departures, with the paper's guarantee that every query has
  at least one live matching document at request time.
"""

from repro.workload.content import ContentIndex, Document
from repro.workload.edonkey import ContentDistribution, EdonkeyParams, synthesize_content
from repro.workload.generator import TraceParams, generate_trace
from repro.workload.interests import (
    N_CLASSES,
    SEMANTIC_CLASSES,
    assign_interests,
    class_node_counts,
    interest_node_counts,
    interest_similarity,
)
from repro.workload.trace import (
    ContentChangeEvent,
    JoinEvent,
    LeaveEvent,
    QueryEvent,
    Trace,
    TraceEvent,
)

__all__ = [
    "ContentChangeEvent",
    "ContentDistribution",
    "ContentIndex",
    "Document",
    "EdonkeyParams",
    "JoinEvent",
    "LeaveEvent",
    "N_CLASSES",
    "QueryEvent",
    "SEMANTIC_CLASSES",
    "Trace",
    "TraceEvent",
    "TraceParams",
    "assign_interests",
    "class_node_counts",
    "generate_trace",
    "interest_node_counts",
    "interest_similarity",
    "synthesize_content",
]
