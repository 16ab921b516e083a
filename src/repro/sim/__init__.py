"""Simulation substrate: discrete-event engine, deterministic RNG, metrics.

This subpackage is self-contained (no SimPy dependency) and provides the
control plane every experiment in the reproduction runs on:

* :mod:`repro.sim.engine` -- a heap-based discrete-event simulation kernel:
  one event queue, one dispatch loop, plain callbacks scheduled at absolute
  times, cancellable events.
* :mod:`repro.sim.random` -- named, seeded random substreams so that every
  stochastic component of an experiment is independently reproducible.
* :mod:`repro.sim.metrics` -- bandwidth accounting by traffic category,
  per-second load time series and summary statistics, mirroring how the
  paper measures "system load" (bytes per live node per second).
"""

from repro.sim.engine import Event, SimulationEngine
from repro.sim.metrics import BandwidthLedger, LoadSeries, TrafficCategory
from repro.sim.random import RandomStreams

__all__ = [
    "BandwidthLedger",
    "Event",
    "LoadSeries",
    "RandomStreams",
    "SimulationEngine",
    "TrafficCategory",
]
