#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): ``better`` / ``within-bound`` /
``worse`` / ``unresolved``.  Every ratio is B over A, the base.  A metric is
*unresolved* when it stays inside its bound but either side's own spread
(quartile distance over median, across that run's repetitions) is wider than
the bound: the runs cannot tell "unchanged" from "changed".  Exits non-zero
on any ``worse``.  ``--layers`` adds the per-layer metrics, reported with
their ratio and no verdict.

Bounds: the four metrics every workload reports take theirs from
``BENCHMARK.json``; the workload-specific headline metrics take theirs from
``HEADLINE_BOUNDS`` below.  When both files used the same seed the quality
metrics are deterministic and any loss is ``worse`` (bound 0).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spans import value_of

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
DECLARED = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Workload-specific end-to-end metrics: the driver cannot gate a metric that
# only one workload reports, so their bounds live here.
# The service's other latencies (query_warm_p50/p99, query_cold_p50,
# candidates_p50) are demoted to reported-only: two sets of one commit
# disagreed by more than a tenth on each (see bench/README.md).
HEADLINE_BOUNDS = {
    "parallel_over_sequential": 0.10,
    "f1": 0.0,
    "ingest_p50_ms": 0.10,
    "failed_share": 0.0,
}
DETERMINISTIC = ("f1", "pair_completeness")


def spread_of(measured) -> float:
    """Quartile distance over the median of one run's repetitions."""
    if not isinstance(measured, dict) or not measured["repeats"] or not measured["value"]:
        return 0.0
    return (measured["q3"] - measured["q1"]) / abs(measured["value"])


def verdict(name: str, a, b, bound: float) -> str:
    """Classify B against A for one metric."""
    base, new = value_of(a), value_of(b)
    lower_is_better = DECLARED[name]["better"] == "lower"
    if base == 0:
        # failed_share and friends: absolute, any increase is a loss.
        worsening = (new - base) if lower_is_better else (base - new)
    else:
        worsening = (new - base) / abs(base) if lower_is_better else (base - new) / abs(base)
    if worsening > bound:
        return "worse"
    if max(spread_of(a), spread_of(b)) > bound > 0:
        return "unresolved"
    if worsening < -bound or (bound == 0 and worsening < 0):
        return "better"
    return "within-bound"


def compare(a: dict, b: dict, layers: bool) -> int:
    same_seed = a["seed"] == b["seed"]
    print(f"A: seed {a['seed']} commit {a['environment']['commit'][:12]}   "
          f"B: seed {b['seed']} commit {b['environment']['commit'][:12]}   "
          f"ratios are B/A (base A)")
    header = (f"{'workload':<16}{'metric':<34}{'A':>13}{'B':>13}{'B/A':>8}"
              f"{'bound':>7}{'spread':>8}  verdict")
    print(header)
    worse = 0
    for workload, record_a in a["workloads"].items():
        record_b = b["workloads"].get(workload)
        if record_b is None:
            print(f"{workload:<16}missing from B")
            worse += 1
            continue
        for name in DECLARED:
            in_a, in_b = record_a["metrics"].get(name), record_b["metrics"].get(name)
            if in_a is None or in_b is None:
                continue
            bound = DECLARED[name].get("bound", HEADLINE_BOUNDS.get(name))
            if bound is None and not layers:
                continue
            if same_seed and name in DETERMINISTIC:
                bound = 0.0
            base, new = value_of(in_a), value_of(in_b)
            ratio = f"{new / base:8.3f}" if base else f"{'-':>8}"
            spread = max(spread_of(in_a), spread_of(in_b))
            if bound is None:
                row_verdict, shown_bound = "reported", f"{'-':>7}"
            else:
                row_verdict = verdict(name, in_a, in_b, bound)
                shown_bound = f"{bound:7.2f}"
                worse += row_verdict == "worse"
            print(f"{workload:<16}{name:<34}{base:>13.6g}{new:>13.6g}{ratio}"
                  f"{shown_bound}{spread:>8.3f}  {row_verdict}")
    print(f"{worse} worse")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base result file")
    parser.add_argument("b", type=Path, help="result file compared against the base")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer metrics (ratio only)")
    args = parser.parse_args(argv)
    return compare(
        json.loads(args.a.read_text(encoding="utf-8")),
        json.loads(args.b.read_text(encoding="utf-8")),
        args.layers,
    )


if __name__ == "__main__":
    sys.exit(main())
