"""``run.py --compare A.json B.json``: B judged against A, bound by bound.

One row per workload and end-to-end metric.  With ``worse`` measured in the
metric's bad direction as a share of A's median:

* the repeats of each set agree within the bound -> ``worse`` if B's median
  is worse than A's by more than the bound, ``better`` if it is better by
  more than the bound, else ``same``;
* a set's own repeats spread (max - min over median) wider than the bound
  -> the medians settle nothing: ``better`` or ``worse`` only when every run
  of one side beats every run of the other, otherwise ``unresolved`` (run
  more repeats; do not widen the bound).
"""

from __future__ import annotations

import json
from typing import Dict

__all__ = ["compare", "verdict"]


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max((s["max"] - s["min"]) / abs(s["median"]) for s in (a, b))
    if spread <= bound:
        if worse_by > bound:
            return "worse"
        return "better" if worse_by < -bound else "same"
    # Noisy repeats: only disjoint ranges decide.
    b_above, b_below = b["min"] > a["max"], b["max"] < a["min"]
    if b_above or b_below:
        return "worse" if b_above == (better == "lower") else "better"
    return "unresolved"


def compare(spec: dict, path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("seed", "repeats", "smoke", "run_seconds"):
        if a[key] != b[key]:
            print(f"note: {key} differs ({a[key]} vs {b[key]})")
    print(f"A = {path_a} ({a['git_sha']})\nB = {path_b} ({b['git_sha']})")
    print(f"{'workload':<18} {'metric':<24} {'A median':>12} {'B median':>12} "
          f"{'unit':<9} {'bound':>6}  verdict")
    bad = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<18} missing from B")
            bad = True
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"]:
            sa, sb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            v = verdict(sa, sb, m["better"], m["bound"])
            bad |= v == "worse"
            print(f"{name:<18} {m['name']:<24} {sa['median']:>12.6g} "
                  f"{sb['median']:>12.6g} {m['unit']:<9} {m['bound']:>6.2f}  {v}")
        fail_a = wa["ops_failed"] / wa["ops_attempted"]
        fail_b = wb["ops_failed"] / wb["ops_attempted"]
        note = "worse" if fail_b > fail_a else "same"
        bad |= fail_b > fail_a
        print(f"{name:<18} {'ops_failed/ops_attempted':<24} {fail_a:>12.6g} "
              f"{fail_b:>12.6g} {'ratio':<9} {'':>6}  {note}")
        if wa["sim_fingerprint"] != wb["sim_fingerprint"]:
            print(f"!!!! {name}: sim_fingerprint changed "
                  f"{wa['sim_fingerprint']} -> {wb['sim_fingerprint']}: the "
                  f"simulated results are not the same results !!!!")
    return 1 if bad else 0
