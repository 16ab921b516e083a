"""Keep-alive traffic modelling (paper footnote 1).

The paper's system-load metric explicitly *excludes* "the keep-alive
messages between peers as they are internally used to maintain overlay
connectivity".  This module makes that exclusion demonstrable rather than
vacuous: it generates the keep-alive traffic (periodic pings along live
overlay edges) into the shared ledger under
:data:`~repro.sim.metrics.TrafficCategory.KEEPALIVE`, which no algorithm's
load-category set contains -- so the Figures 8-10 numbers are provably
unaffected while the ledger still accounts for every byte on the wire.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.overlay import Overlay
from repro.sim.engine import PeriodicTimer, SimulationEngine
from repro.sim.metrics import BandwidthLedger, TrafficCategory

__all__ = ["KeepaliveTraffic"]


class KeepaliveTraffic:
    """Periodic neighbour pings over the live overlay.

    One sweep every ``period_s`` charges ``ping_bytes`` per live directed
    edge (each endpoint pings the other, Gnutella-style).  The sweep is
    aggregated -- per-edge events would swamp the engine for a traffic
    class the metrics exclude anyway -- but the byte totals are exact.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        overlay: Overlay,
        ledger: BandwidthLedger,
        period_s: float = 30.0,
        ping_bytes: int = 40,
        phase: Optional[float] = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if ping_bytes <= 0:
            raise ValueError("ping_bytes must be positive")
        self.overlay = overlay
        self.ledger = ledger
        self.period_s = period_s
        self.ping_bytes = ping_bytes
        self._engine = engine
        self._timer = PeriodicTimer(
            engine, period=period_s, callback=self._sweep, phase=phase,
            name="keepalive",
        )

    def _sweep(self) -> None:
        # Both directions of every live edge.
        n_pings = len(self.overlay.walk_csr().indices)
        if n_pings:
            self.ledger.record(
                self._engine.now,
                TrafficCategory.KEEPALIVE,
                n_pings * self.ping_bytes,
                messages=n_pings,
            )

    def stop(self) -> None:
        self._timer.stop()

    def expected_bytes_per_node_per_second(self) -> float:
        """Analytic rate: avg live degree x ping size / period."""
        n_live = self.overlay.live_count()
        if n_live == 0:
            return 0.0
        n_pings = len(self.overlay.walk_csr().indices)
        return n_pings * self.ping_bytes / self.period_s / n_live
