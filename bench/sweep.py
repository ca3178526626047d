"""Run the benchmark over several seeds and collect one result set.

    python3 bench/sweep.py --seeds 1-10 --out results.jsonl
    python3 bench/sweep.py --seeds 3 --workloads verify --trace 1 --out t.jsonl

Runs `run.py` once per workload and seed, one run at a time, with the
workloads interleaved, and appends every full result to `--out`.  Then prints,
for each workload and end-to-end metric, the median, the quartiles and the
spread (quartile distance over median) next to the metric's bound; a spread
above a third of its bound is flagged.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import load, quartiles, spread

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    status = 0
    for seed in seed_list(args.seeds):
        for workload in names:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--trace", str(args.trace), "--out", os.path.abspath(args.out)]
            if args.seconds:
                cmd += ["--seconds", str(args.seconds)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:160]}",
                  flush=True)
            if proc.returncode:
                status = 1
                sys.stderr.write(proc.stderr[-2000:])
    if args.trace:
        return status
    untraced, _ = load(args.out)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in names:
        runs = untraced.get(workload, [])
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = "  > bound/3" if s > bound / 3 else ""
            print(f"{workload:<11} {name:<12} median {med:.5g} [{q1:.5g}, {q3:.5g}] "
                  f"spread {s:.4f} bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
