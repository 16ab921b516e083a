#!/usr/bin/env python
"""Quickstart: one ASAP search, end to end.

Builds a small unstructured P2P system, warms it up (peers disseminate
advertisements of their shared content), then issues a search and walks
through what happened: the local ads-cache lookup, the one-hop content
confirmation, and the resulting response time -- the paper's core idea in
~60 lines of driver code.

Run:  python examples/quickstart.py [--trace trace.jsonl]

With ``--trace``, ad deliveries and the query span are recorded through
``repro.obs`` into an action log and rendered to the file as JSONL,
gzip-compressed when the path ends in ``.gz`` (see docs/OBSERVABILITY.md).
"""

import argparse
import numpy as np

from repro.asap import AsapParams, AsapSearch
from repro.network import Overlay, build_topology
from repro.obs import ActionLog, Instrumentation, write_trace
from repro.obs.actions import KINDS
from repro.sim import BandwidthLedger, SimulationEngine
from repro.workload import EdonkeyParams, synthesize_content


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a structured JSONL trace of the run to PATH "
        "(gzip-compressed when PATH ends in .gz)",
    )
    args = parser.parse_args(argv)
    if not args.trace:
        demo(log=None)
        return
    log = ActionLog()
    demo(log)
    write_trace(log, args.trace)
    by_kind = ", ".join(
        f"{kind}={len(log.table(code))}" for code, kind in enumerate(KINDS)
        if len(log.table(code))
    )
    print(f"trace: {log.n_records()} records ({by_kind}) -> {args.trace}")


def demo(log) -> None:
    rng = np.random.default_rng(7)
    n_peers = 200

    # 1. An unstructured overlay (Gnutella-like crawled shape, avg degree 3.35).
    topology = build_topology("crawled", n_peers, rng=rng)
    overlay = Overlay(topology, default_edge_latency_ms=25.0)

    # 2. An eDonkey-like content distribution: ~1.28 copies per document,
    #    interest-clustered placement, some free-riders.
    dist = synthesize_content(EdonkeyParams(n_peers=n_peers, avg_docs_per_peer=8.0), rng)
    print(f"{dist.index.n_documents} documents shared by "
          f"{int((~dist.free_rider).sum())} sharers "
          f"({int(dist.free_rider.sum())} free-riders)")

    # 3. ASAP with random-walk ad delivery (the paper's default scheme).
    ledger = BandwidthLedger()
    asap = AsapSearch(
        overlay,
        dist.index,
        ledger,
        rng=np.random.default_rng(1),
        interests=dist.interests,
        params=AsapParams(forwarder="rw", budget_unit=150),
    )
    if log is not None:
        asap.attach(Instrumentation(log))

    # 4. Warm-up: every sharer advertises; every node bootstraps its cache.
    engine = SimulationEngine()
    asap.warmup(engine, start=0.0, duration=30.0)
    engine.run(until=30.0)
    cache_sizes = asap.state.occupancy[:n_peers].tolist()
    print(f"after warm-up: ads cache holds {np.mean(cache_sizes):.0f} ads "
          f"on average (max {max(cache_sizes)})")

    # 5. Search: pick a shared document from the most popular class (where
    #    interest clustering gives ads the widest audience) and ask for it
    #    from a peer interested in that class.
    interest_counts = {c: sum(1 for i in dist.interests if c in i)
                       for c in range(14)}
    doc = max(
        (d for d in dist.index.all_documents() if dist.index.holders(d.doc_id)),
        key=lambda d: interest_counts[d.class_id],
    )
    holder = next(iter(dist.index.holders(doc.doc_id)))
    requester = next(
        n for n in range(n_peers)
        if doc.class_id in dist.interests[n] and n != holder
    )
    terms = doc.keywords[:2]
    print(f"\nnode {requester} searches for {list(terms)} "
          f"(shared by node {holder}, class {doc.class_id})")

    outcome = asap.search(requester, terms, now=engine.now)
    if outcome.success:
        print(f"SUCCESS in {outcome.response_time_ms:.0f} ms with "
              f"{outcome.messages} messages ({outcome.cost_bytes:.0f} bytes)")
        print("that is: local ads-cache lookup -> one confirmation round-trip.")
    else:
        print("search failed (no matching ad anywhere within reach)")

    print(f"\ntotal warm-up + search bandwidth: {ledger.total_bytes():,.0f} bytes")


if __name__ == "__main__":
    main()
