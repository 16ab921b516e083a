"""Run profiling: wall-clock and event-count accounting per subsystem.

The profiler times **engine dispatch**: the run's
:class:`~repro.obs.instrument.Instrumentation` is the engine's observer and
hands it ``event_begin``/``event_end`` around every dispatched event (an
unobserved engine pays a single branch).  Each dispatch is attributed to

* a **subsystem**, derived from the event's scheduling name with trailing
  per-node suffixes stripped (``full-ad-123`` -> ``full-ad``,
  ``refresh-7`` -> ``refresh``, ``trace`` -> ``trace``); and
* a **phase**: ``warmup`` when the event fires before the configured
  warm-up boundary, ``measurement`` after (mirroring how the paper
  excludes the warm-up window from its metrics).

``finish()`` freezes the accumulated accounting into a :class:`RunProfile`
-- a plain-data summary attached to ``RunResult`` and renderable as a
table or a dict (``run.json``'s ``profile``).
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

__all__ = [
    "PhaseStats",
    "Profiler",
    "RunProfile",
    "merge_profiles",
    "peak_rss_mb",
    "subsystem_of",
]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (``getrusage``).

    Linux reports ``ru_maxrss`` in KB and macOS in bytes; the value is a
    high-water mark, so in a sweep it reflects the largest cell run so
    far, not the current one in isolation.
    """
    unit = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit

_DIGITS = "0123456789"


def subsystem_of(name: str) -> str:
    """Map an event's scheduling name to its subsystem label.

    Strips one trailing ``-<digits>`` node suffix; empty names collapse to
    ``"unnamed"``.
    """
    if not name:
        return "unnamed"
    stripped = name.rstrip(_DIGITS)
    if stripped != name and stripped.endswith("-"):
        return stripped[:-1]
    return name


@dataclass
class PhaseStats:
    """Event count and wall-clock seconds attributed to one bucket."""

    events: int = 0
    wall_s: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"events": self.events, "wall_s": self.wall_s}


@dataclass
class RunProfile:
    """Frozen per-run profiling summary.

    ``subsystems`` and ``phases`` map bucket name to :class:`PhaseStats`;
    ``engine_events`` / ``engine_pending_live`` snapshot the engine at
    ``finish()`` time; ``wall_s`` is total wall-clock spent inside event
    callbacks (the engine's own heap work is excluded -- it is the
    difference to the run's end-to-end time).
    """

    subsystems: Dict[str, PhaseStats] = field(default_factory=dict)
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    events: int = 0
    wall_s: float = 0.0
    engine_events: int = 0
    engine_pending_live: int = 0
    sim_end_s: float = 0.0
    # Process peak RSS (MB) at finish() time and, for ASAP runs, the
    # ``AdsState.stats()`` snapshot (live pairs, dense state bytes ...).
    peak_rss_mb: float = 0.0
    state: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "wall_s": self.wall_s,
            "engine_events": self.engine_events,
            "engine_pending_live": self.engine_pending_live,
            "sim_end_s": self.sim_end_s,
            "peak_rss_mb": self.peak_rss_mb,
            "state": dict(sorted(self.state.items())),
            "subsystems": {k: v.to_dict() for k, v in sorted(self.subsystems.items())},
            "phases": {k: v.to_dict() for k, v in sorted(self.phases.items())},
        }

    def format_table(self) -> str:
        lines = ["run profile"]
        lines.append(
            f"  dispatched {self.events} events in {self.wall_s:.3f}s wall "
            f"(sim clock ended at {self.sim_end_s:.1f}s)"
        )
        lines.append(
            f"  engine: {self.engine_events} processed, "
            f"{self.engine_pending_live} live pending at finish"
        )
        if self.peak_rss_mb > 0:
            lines.append(f"  memory: peak RSS {self.peak_rss_mb:.1f} MB")
        if self.state:
            a = self.state
            lines.append(
                f"  ads state: {a.get('rows_live', 0)} cached pairs of "
                f"{a.get('pool_rows', 0)} dense cells "
                f"({a.get('pool_bytes', 0) / 1e6:.1f} MB)"
            )
        for title, buckets in (("phase", self.phases), ("subsystem", self.subsystems)):
            if not buckets:
                continue
            lines.append(f"  by {title}:")
            width = max(len(k) for k in buckets)
            for name, stats in sorted(
                buckets.items(), key=lambda kv: -kv[1].wall_s
            ):
                share = stats.wall_s / self.wall_s if self.wall_s > 0 else 0.0
                lines.append(
                    f"    {name:<{width}}  {stats.events:>9} events  "
                    f"{stats.wall_s:>8.3f}s  {share:>5.1%}"
                )
        return "\n".join(lines)


def merge_profiles(profiles: Iterable[RunProfile]) -> RunProfile:
    """Aggregate per-run profiles into one sweep-level :class:`RunProfile`.

    Used by parallel sweeps: each worker profiles its own cells exactly,
    and the parent merges the returned profiles so ``--profile`` totals
    stay correct under parallelism.  Counts and wall-clock add up (wall is
    the *sum* of per-worker callback time -- CPU-seconds of simulation
    work, not elapsed time); the simulated end time is the maximum.
    """
    merged = RunProfile()
    for profile in profiles:
        merged.events += profile.events
        merged.wall_s += profile.wall_s
        merged.engine_events += profile.engine_events
        merged.engine_pending_live += profile.engine_pending_live
        merged.sim_end_s = max(merged.sim_end_s, profile.sim_end_s)
        # Peak RSS is a per-process high-water mark: the sweep-level figure
        # is the worst cell, not a sum.  Ads-state stats keep the fullest
        # snapshot whole (mixing pairs from different cells is meaningless).
        merged.peak_rss_mb = max(merged.peak_rss_mb, profile.peak_rss_mb)
        if profile.state and profile.state.get(
            "rows_live", 0
        ) >= merged.state.get("rows_live", 0):
            merged.state = dict(profile.state)
        for buckets, add in (
            (merged.subsystems, profile.subsystems),
            (merged.phases, profile.phases),
        ):
            for name, stats in add.items():
                acc = buckets.get(name)
                if acc is None:
                    acc = buckets[name] = PhaseStats()
                acc.events += stats.events
                acc.wall_s += stats.wall_s
    return merged


class Profiler:
    """Accumulates per-subsystem / per-phase dispatch costs."""

    def __init__(
        self,
        warmup_s: float = 0.0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.warmup_s = warmup_s
        self._clock = clock
        self._subsystems: Dict[str, PhaseStats] = {}
        self._phases: Dict[str, PhaseStats] = {
            "warmup": PhaseStats(),
            "measurement": PhaseStats(),
        }
        self._events = 0
        self._wall = 0.0
        self._t0 = 0.0
        self._current: Optional[str] = None

    # -------------------------------------------------- engine observer hooks
    def event_begin(self, event) -> None:
        self._current = event.name
        self._t0 = self._clock()

    def event_end(self, event) -> None:
        dt = self._clock() - self._t0
        self._events += 1
        self._wall += dt
        label = subsystem_of(event.name)
        sub = self._subsystems.get(label)
        if sub is None:
            sub = self._subsystems[label] = PhaseStats()
        sub.events += 1
        sub.wall_s += dt
        phase = self._phases[
            "warmup" if event.time < self.warmup_s else "measurement"
        ]
        phase.events += 1
        phase.wall_s += dt

    # ------------------------------------------------------------------ final
    def finish(self, engine=None) -> RunProfile:
        """Freeze the accounting into a :class:`RunProfile`."""
        profile = RunProfile(
            subsystems=dict(self._subsystems),
            phases={k: v for k, v in self._phases.items() if v.events},
            events=self._events,
            wall_s=self._wall,
        )
        if engine is not None:
            profile.engine_events = engine.events_processed
            profile.engine_pending_live = engine.pending_live
            profile.sim_end_s = engine.now
        return profile
