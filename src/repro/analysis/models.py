"""Closed-form models: Bloom false-positive rate and one-hop round trip.

Each is read by a campaign claim (:mod:`repro.experiments.campaign`): the
Bloom model by "Ablation bloom", the round-trip model by "Figure 5".
"""

from __future__ import annotations

import math

from repro.network.transit_stub import TransitStubParams

__all__ = ["bloom_false_positive_rate", "expected_one_hop_rtt_ms"]


def bloom_false_positive_rate(n_items: int, m_bits: int, k: int) -> float:
    """Standard Bloom FPR: (1 - e^{-kn/m})^k.

    At the paper's design point (n=1,000, m=11,542, k=8) this evaluates to
    ~0.39% -- the (1/2)^k minimum of Section III-B.
    """
    if m_bits < 1 or k < 1 or n_items < 0:
        raise ValueError("invalid Bloom parameters")
    return (1.0 - math.exp(-k * n_items / m_bits)) ** k


def expected_one_hop_rtt_ms(params: TransitStubParams | None = None) -> float:
    """Expected confirmation round-trip between two random stub nodes.

    Decomposes the hierarchical path: intra-stub hops to the gateway
    (~1.5 expected hops of 2 ms on the ER(40, 0.4) domain graph), the 5 ms
    access links, one expected transit traversal (most node pairs sit in
    different transit domains: ~1 inter-domain 50 ms link plus ~1 intra
    20 ms hop each side), doubled for the round trip.  A coarse but useful
    sizing model -- the "Figure 5" claim holds every ASAP scheme's measured
    response time within 15% of it.
    """
    p = params or TransitStubParams()
    intra_stub_hops = 1.5  # expected gateway distance on ER(40, 0.4)
    one_way = (
        2 * intra_stub_hops * p.lat_intra_stub_ms  # both stub domains
        + 2 * p.lat_transit_stub_ms  # both access links
        + p.lat_inter_transit_ms * (1.0 - 1.0 / p.n_transit_domains)
        + 2 * p.lat_intra_transit_ms  # expected intra-transit hops
    )
    return 2.0 * one_way
