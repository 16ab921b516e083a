"""Analytic models the campaign's claims check the simulator against.

Section III-B sizes the Bloom filter from the standard false-positive
formula, and the hierarchical substrate fixes the expected confirmation
round trip; the "Ablation bloom" and "Figure 5" claims
(:mod:`repro.experiments.campaign`) hold the measured tables to these
closed forms, so a simulator that drifts from the paper's arithmetic fails
a claim.  (Section III-A's flooding-load arithmetic is recorded in
DESIGN.md.)
"""

from repro.analysis.models import bloom_false_positive_rate, expected_one_hop_rtt_ms

__all__ = ["bloom_false_positive_rate", "expected_one_hop_rtt_ms"]
