#!/usr/bin/env python
"""Multi-seed replication: the headline comparison with error bars.

The paper reports single runs; this example replays flooding and ASAP(RW)
under several independent seeds and reports each metric as mean ± std --
the form in which a reviewer would want the comparison.

Run:  python examples/replicated_comparison.py [n_seeds]
"""

import sys
from dataclasses import replace

from repro.experiments.parallel import run_cells
from repro.simulation import scaled_config
from repro.simulation.replication import format_spreads, summary_spreads

N_PEERS = 250
N_QUERIES = 300


def main() -> None:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    print(f"{n_seeds} replications x {N_QUERIES} queries over {N_PEERS} peers "
          f"(crawled overlay)\n")
    results = {}
    for algo in ("flooding", "asap_rw"):
        cfg = scaled_config(algo, "crawled", n_peers=N_PEERS, n_queries=N_QUERIES)
        seeds = [cfg.seed + i for i in range(n_seeds)]
        summaries = [
            result.summarize()
            for result in run_cells([replace(cfg, seed=seed) for seed in seeds])
        ]
        results[algo] = summary_spreads(summaries)
        print(format_spreads(
            f"{summaries[0].algorithm} on {cfg.topology} "
            f"({n_seeds} replications, seeds {seeds})",
            results[algo],
        ))
        print()

    flood = results["flooding"]
    asap = results["asap_rw"]
    rt_cut = 1.0 - asap["avg_response_time_ms"].mean / flood["avg_response_time_ms"].mean
    cost_ratio = flood["avg_cost_bytes"].mean / asap["avg_cost_bytes"].mean
    load_ratio = flood["load_mean_bpns"].mean / asap["load_mean_bpns"].mean
    print(f"across seeds: ASAP(RW) answers {rt_cut:.0%} faster, searches are "
          f"{cost_ratio:.0f}x cheaper,")
    print(f"and the system runs {load_ratio:.1f}x quieter than flooding.")
    print("(paper: >62% faster, 2-3 orders cheaper, 2-5x quieter)")


if __name__ == "__main__":
    main()
