#!/usr/bin/env python
"""Hierarchical ASAP: only super peers carry ads (paper footnote 3).

Elects the best-connected fraction of peers as super peers, attaches every
leaf to its nearest one, and compares searches issued by leaves vs super
peers: leaves pay one extra round-trip, the system keeps ads on a fraction
of the nodes.

Run:  python examples/superpeer_hierarchy.py
"""

import numpy as np

from repro.asap import AsapParams, SuperPeerAsapSearch
from repro.network import Overlay, build_topology
from repro.sim import BandwidthLedger, SimulationEngine
from repro.workload import EdonkeyParams, synthesize_content


def main() -> None:
    rng = np.random.default_rng(11)
    n_peers = 250

    topology = build_topology("crawled", n_peers, rng=rng)
    overlay = Overlay(topology, default_edge_latency_ms=20.0)
    dist = synthesize_content(
        EdonkeyParams(n_peers=n_peers, avg_docs_per_peer=8.0), rng
    )

    algo = SuperPeerAsapSearch(
        overlay,
        dist.index,
        BandwidthLedger(),
        rng=np.random.default_rng(1),
        interests=dist.interests,
        params=AsapParams(forwarder="fld"),
        super_fraction=0.15,
    )
    engine = SimulationEngine()
    algo.warmup(engine, start=0.0, duration=30.0)
    engine.run(until=30.0)

    supers = [n for n in range(n_peers) if algo.is_super_peer(n)]
    leaves = [n for n in range(n_peers) if not algo.is_super_peer(n)]
    print(f"{len(supers)} super peers carry all ads; {len(leaves)} leaves carry none")
    leaf_cached = int(algo.state.occupancy[leaves].sum())
    super_cached = int(algo.state.occupancy[supers].sum())
    print(f"cache entries: super tier {super_cached}, leaf tier {leaf_cached}")

    # Issue the same queries from a leaf and from a super peer.
    docs = [d for d in dist.index.all_documents() if dist.index.holders(d.doc_id)]
    rows = {"leaf": [], "super": []}
    rng2 = np.random.default_rng(2)
    for doc in rng2.choice(len(docs), size=60, replace=False):
        doc = docs[int(doc)]
        holders = dist.index.holders(doc.doc_id)
        terms = doc.keywords[:2]
        leaf = next(
            n for n in leaves
            if doc.class_id in dist.interests[n] and n not in holders
        )
        sp = next(
            (n for n in supers if n not in holders), None
        )
        if sp is None:
            continue
        rows["leaf"].append(algo.search(leaf, terms, now=40.0))
        rows["super"].append(algo.search(sp, terms, now=40.0))

    for tier, outcomes in rows.items():
        ok = [o for o in outcomes if o.success]
        rate = len(ok) / len(outcomes)
        rt = np.mean([o.response_time_ms for o in ok]) if ok else float("nan")
        print(f"{tier:>6} searches: success {rate:.2f}, avg response {rt:.0f} ms")
    print("\nleaves pay one extra hop through their super peer; the super")
    print("tier's aggregated interests keep coverage essentially intact.")


if __name__ == "__main__":
    main()
