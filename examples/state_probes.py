#!/usr/bin/env python
"""Watch ASAP's protocol *state* evolve: coverage, staleness, cache health.

The paper's claim is that advertisements pre-position content indices so
queries resolve at (or near) the requester.  The probe layer
(``repro.obs.probes``) makes that claim observable: a read-only snapshot
every ``probe_interval_s`` simulated seconds records, per tick, what
fraction of each source's live interested audience already holds its ad,
how stale the cached entries are, and what false-positive rate the Bloom
filters actually run at.

This example replays one ASAP(RW) cell under churn with probes on, prints
the coverage ramp (warm-up filling the caches, then steady state) and the
size of the dense ads state, and shows the two determinism guarantees the layer
is built on:

* the protocol-state series is a pure function of the seeded config --
  a second run produces a bit-identical ``state_fingerprint``;
* enabling probes does not change the run itself -- outcomes are equal
  with probes on or off.

Run:  python examples/state_probes.py
"""

from dataclasses import replace

from repro.obs.probes import format_state_table, headline, state_fingerprint
from repro.simulation import run_experiment, scaled_config

N_PEERS = 250
N_QUERIES = 500


def main() -> None:
    cfg = scaled_config(
        "asap_rw",
        "crawled",
        n_peers=N_PEERS,
        n_queries=N_QUERIES,
        use_physical_network=False,
    )
    # The trace lasts ~N_QUERIES / 8 simulated seconds; probe every 10 s
    # so the series has enough ticks to show the ramp.
    cfg = replace(cfg, probe_interval_s=10.0)

    print(f"ASAP(RW) over {N_PEERS} peers, {N_QUERIES} queries (crawled)\n")
    result = run_experiment(cfg, probes=True)
    summary = result.probes

    print("state snapshots (one row per probe tick):")
    print(format_state_table(summary, max_rows=10))
    head = headline(summary)
    print(
        f"\nfinal tick: {head['coverage_fraction']:.1%} of live interested "
        f"audiences covered, replication p50 {head['replication_p50']:.0f} "
        f"holders/source,\nad age p50/p90 {head['age_p50_s']:.0f}/"
        f"{head['age_p90_s']:.0f}s, mean Bloom FP {head['fp_mean']:.2e} "
        f"(paper ceiling {summary['ticks'][-1]['bloom']['fp_ceiling']:.2e})"
    )

    # How the state is stored: one dense peer x source relation, so its
    # size is fixed by the peer count and the fill is what varies.
    stored = summary["ticks"][-1]["backend"]["arena"]
    print(
        f"\nads state: {stored['rows_live']} cached pairs in "
        f"{stored['pool_rows']} dense cells "
        f"({stored['rows_live'] / stored['pool_rows']:.0%} fill, "
        f"{stored['pool_bytes'] / 1e6:.2f} MB), occupancy counters "
        f"{'consistent' if stored['slot_index_consistent'] else 'BROKEN (bug!)'}"
    )

    # Guarantee 1: the protocol-state series depends only on the config.
    again = run_experiment(cfg, probes=True)
    match = state_fingerprint(summary) == state_fingerprint(again.probes)
    print(
        f"re-run state fingerprint: "
        f"{'bit-identical' if match else 'MISMATCH (bug!)'} "
        f"({state_fingerprint(summary)})"
    )

    # Guarantee 2: probing is free of side effects on the run.
    plain = run_experiment(cfg, probes=False)
    unchanged = [o.success for o in plain.outcomes] == [
        o.success for o in result.outcomes
    ]
    print(
        "probes on vs off run outcomes: "
        f"{'identical' if unchanged else 'DIFFERENT (bug!)'}"
    )

    print(
        "\nPin state_fingerprint(summary) in CI to catch protocol-state drift;"
        "\nsee docs/OBSERVABILITY.md section 6 for the full series glossary."
    )


if __name__ == "__main__":
    main()
