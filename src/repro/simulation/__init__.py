"""Experiment driver: configuration, trace replay and result containers.

* :mod:`repro.simulation.config` -- :class:`RunConfig` (one algorithm on one
  topology with one workload) plus helpers for the paper-scale and
  laptop-scale parameterisations;
* :mod:`repro.simulation.runner` -- builds the full stack (physical network,
  overlay, workload, algorithm), replays the trace through the event engine
  and collects a :class:`RunResult`;
* :mod:`repro.simulation.results` -- per-run summary statistics matching the
  paper's metrics (success rate, response time, search cost, system load
  mean/std, load breakdown).
"""

from repro.simulation.config import ALGORITHMS, RunConfig, paper_config, scaled_config
from repro.simulation.replication import MetricSpread
from repro.simulation.results import RunResult, RunSummary
from repro.simulation.runner import run_experiment

__all__ = [
    "ALGORITHMS",
    "MetricSpread",
    "RunConfig",
    "RunResult",
    "RunSummary",
    "paper_config",
    "run_experiment",
    "scaled_config",
]
