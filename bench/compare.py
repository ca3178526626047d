"""Compare two benchmark result sets, one row per workload and metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

A result set is the JSON-lines file that `run.py --out` (or `sweep.py`)
appends to.  For each workload and end-to-end metric the table gives each
side's median and quartiles, the ratio new/base with its base, and a verdict
judged against the metric's bound in `BENCHMARK.json`:

- REGRESSION: the new median is worse than the base median by more than the
  bound;
- unresolved: a side's run-to-run spread (quartile distance over median) is
  wider than the bound, so "unchanged" cannot be told apart, unless every new
  run reads better than every base run;
- improved: the new side wins at least nine tenths of the runs paired by
  seed and the medians differ by more than the base quartile distance;
- unchanged: otherwise.

`psi_steps_per_s` and `samples_per_s` take the bound of `ops_per_s`;
`error_rate` is a regression whenever its median rises.  Traced runs are
listed after the table, count against count, with no verdict.  The exit
code is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DERIVED_BOUNDS = {"psi_steps_per_s": "ops_per_s", "samples_per_s": "ops_per_s"}
HIGHER = {"ops_per_s", "psi_steps_per_s", "samples_per_s"}


def load(path):
    untraced, traced = defaultdict(list), defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                side = traced if rec["provenance"]["trace"] else untraced
                side[rec["provenance"]["workload"]].append(rec)
    return untraced, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(name, base_runs, new_runs, bound, higher):
    """Verdict for one metric on one workload; runs are {seed: value}."""
    base, new = list(base_runs.values()), list(new_runs.values())
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)

    def better(a, b):
        return a > b if higher else a < b

    if name == "error_rate":
        return "REGRESSION" if nmed > bmed else "unchanged"
    if max(spread(base), spread(new)) > bound:
        if all(better(n, b) for n in new for b in base):
            return "improved (every run)"
        return "unresolved"
    worse = (bmed - nmed) / bmed if higher else (nmed - bmed) / bmed
    if worse > bound:
        return "REGRESSION"
    pairs = [(new_runs[s], base_runs[s]) for s in new_runs if s in base_runs]
    wins = sum(1 for n, b in pairs if better(n, b))
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > bq3 - bq1:
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    higher |= HIGHER
    base, base_traced = load(args.base)
    new, new_traced = load(args.new)
    regressions = 0
    header = (f"{'workload':<11} {'metric':<16} {'base median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'new/base (base)':>26}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload:<11} missing on one side "
                  f"(base {len(base.get(workload, []))} runs, "
                  f"new {len(new.get(workload, []))} runs)")
            continue
        names = [n for n in base[workload][0]["metrics"]
                 if n in new[workload][0]["metrics"]]
        for name in names:
            b = {r["provenance"]["seed"]: r["metrics"][name]["value"]
                 for r in base[workload]}
            n = {r["provenance"]["seed"]: r["metrics"][name]["value"]
                 for r in new[workload]}
            bound = bounds.get(name, bounds.get(DERIVED_BOUNDS.get(name), 0.0))
            v = verdict(name, b, n, bound, name in higher)
            regressions += v == "REGRESSION"
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "n/a"
            print(f"{workload:<11} {name:<16} "
                  f"{bq[1]:>12.5g} [{bq[0]:.4g}, {bq[2]:.4g}]".ljust(64)
                  + f"{nq[1]:>12.5g} [{nq[0]:.4g}, {nq[2]:.4g}]".ljust(34)
                  + f" {ratio:>7} (base {bq[1]:.4g})".ljust(27)
                  + f"  {v}")
    for workload in sorted(set(base_traced) & set(new_traced)):
        b, n = base_traced[workload][0], new_traced[workload][0]
        print(f"\ntraced {workload}: base seed {b['provenance']['seed']}, "
              f"new seed {n['provenance']['seed']}")
        for name, m in b["metrics"].items():
            if name in n["metrics"]:
                bv, nv = m["value"], n["metrics"][name]["value"]
                ratio = f"{nv / bv:.3f}" if bv else "n/a"
                print(f"  {name:<40} {bv:>14.6g} -> {nv:<14.6g} "
                      f"new/base {ratio} (base {bv:.6g} {m['unit']})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
