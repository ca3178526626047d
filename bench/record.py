"""Record the reference outputs the benchmark's gate compares against.

    python3 bench/record.py --workload orbit-near

Runs every op of the workload's reference pool once and writes
`bench/references/<workload>.json`.  Each psi orbit is cross-checked while
recording by walking it back with `inverse_square_map`.  Run it only when the
pool or the op definition changes, on a commit whose outputs are trusted,
and say in the change which commit the references come from.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run as bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    bench.import_package()
    import workloads as w

    workload = w.WORKLOAD_TYPES[args.workload](0)
    pool = workload.pool()
    keys = sorted({op.polygon_key for op in pool})
    corpus = w.Corpus(keys)
    w.build_models(corpus)
    workload.prepare(corpus)
    entries = {}
    t0 = time.perf_counter()
    for i, op in enumerate(pool):
        try:
            result = workload.run(op, corpus)
        except Exception as exc:  # recorded: the gate expects the same crash
            out = w.raised_outcome(exc)
        else:
            out = workload.outcome(result)
            if isinstance(workload, w.OrbitWorkload):
                w.walk_back(corpus.polygons[op.polygon_key], result)
        entries[op.ref_key] = out.summary
        print(f"{i + 1}/{len(pool)} {op.ref_key} "
              f"{out.summary.get('raised', 'ok')[:80]} "
              f"{time.perf_counter() - t0:.1f}s", file=sys.stderr, flush=True)
    doc = {"schema": "bench-references/1", "workload": args.workload,
           "git_rev": bench.git_rev(), "src_sha256": bench.src_digest(),
           "entries": entries}
    os.makedirs(w.REFERENCE_DIR, exist_ok=True)
    with open(w.reference_path(args.workload), "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
