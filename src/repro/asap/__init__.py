"""ASAP: the advertisement-based search algorithm (the paper's contribution).

Structure:

* :mod:`repro.asap.ads` -- the ad tuple (I, C, T, v): full / patch / refresh
  ads, topics, version numbers and wire sizes;
* :mod:`repro.asap.store` -- the per-simulation source-filter store: every
  source's current version, patch history and topics, and the packed filter
  matrix whose columns are the filters, answering "which sources match this
  query" in one shot;
* :mod:`repro.asap.state` -- every node's ads cache (interest-based
  selective caching, version merging, staleness tracking, optional
  capacity-bounded eviction) as one dense peer x source relation;
* :mod:`repro.asap.delivery` -- ad forwarding over the overlay by flooding,
  random walk or GSA, with the total-budget limit (M0 = 3,000 per topic);
* :mod:`repro.asap.protocol` -- the search algorithm of Table I: local ads
  lookup, content confirmation, and the h-hop ads-request fallback; plus
  churn handling (join => full ad + ads request) and periodic refresh ads.
"""

from repro.asap.ads import Ad, AdType
from repro.asap.delivery import (
    AdForwarder,
    DeliveryReport,
    FloodAdForwarder,
    GsaAdForwarder,
    RandomWalkAdForwarder,
    make_forwarder,
)
from repro.asap.protocol import AsapParams, AsapSearch
from repro.asap.store import SourceFilterStore
from repro.asap.superpeer import SuperPeerAsapSearch, elect_super_peers

__all__ = [
    "Ad",
    "AdForwarder",
    "AdType",
    "AsapParams",
    "AsapSearch",
    "DeliveryReport",
    "FloodAdForwarder",
    "GsaAdForwarder",
    "RandomWalkAdForwarder",
    "SourceFilterStore",
    "SuperPeerAsapSearch",
    "elect_super_peers",
    "make_forwarder",
]
