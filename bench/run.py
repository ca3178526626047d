"""Repository benchmark: one workload, one seed, one closed-loop process.

    python3 bench/run.py --workload orbit-near --seed 1 --seconds 15 --trace 0

Run it from the repository root (or any directory holding `BENCHMARK.json`,
`bench/` and `src/`).  One process, one caller: the next op starts when the
previous one returns.  The run

1. sets up cold in SETUP_CHILDREN child processes (`--setup-only`), one
   after the other, and then once more itself: a set-up imports
   `outerbilliards` from `src/`, generates the seeded corpus, builds every
   `BilliardModel` structure and runs the warm-up ops; `setup_s` is the
   median of these cold set-ups, warm-up ops included;
2. runs whole passes over the corpus until `--seconds` have gone by, timing
   each op, and checks each op's output against `bench/references/`;
3. prints every metric by name and unit, then, as its last line, one JSON
   object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 1` the run instead times a fixed set of ops twice, untraced and
then traced, and reports the per-layer metrics of `BENCHMARK.json` from the
traced spans, plus the tracing overhead.  The exit code is 0 when every op
agrees with its reference, 1 when one does not, and 2 on a usage or set-up
error (no result line then).  `--out FILE` appends the full result, with
provenance, as one JSON line.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import List  # noqa: E402

from speed import SpeedProbe  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_CHILDREN = 2
TAIL_BEYOND = 10


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing files, bad arguments)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from None


def import_package():
    """Import `outerbilliards` from this checkout's `src/`; returns the
    perf_counter interval the import took."""
    init = os.path.join(SRC, "outerbilliards", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no package source at {init}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    pkg = importlib.import_module("outerbilliards")
    t1 = time.perf_counter()
    if os.path.abspath(pkg.__file__) != os.path.abspath(init):
        raise SetupError(f"imported {pkg.__file__}, not {init}")
    return t0, t1


def provenance(args, spec: dict) -> dict:
    return {
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def git_rev() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "outerbilliards")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def tail(times):
    """(value, percentile, ops beyond): the highest percentile with at least
    TAIL_BEYOND ops beyond it, or the slowest op when the run is too short
    for such a percentile to lie above the median."""
    xs = sorted(times)
    n = len(xs)
    if n > 2 * TAIL_BEYOND + 1:
        return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return xs[-1], 100.0, 0


# ---------------------------------------------------------------------------
# running ops


@dataclass
class Record:
    op: object
    t0: float
    t1: float
    outcome: object
    failed: bool
    wrong: bool
    wall_s: float = 0.0       # op time without the speed probe's own time
    seconds: float = 0.0      # the same at the probe's nominal speed


class Run:
    """Set-up, warm-up and op execution for one workload and seed."""

    def __init__(self, args, probe: SpeedProbe):
        import workloads

        self.w = workloads
        self.probe = probe
        self.workload = workloads.WORKLOAD_TYPES[args.workload](args.seed)
        try:
            self.references = workloads.load_references(args.workload)
        except (OSError, ValueError) as exc:
            raise SetupError(f"cannot load references: {exc}") from None
        self.records: List[Record] = []
        self.corpus = None

    def setup(self):
        """Build the corpus once, then run the warm-up ops; returns the
        perf_counter intervals of each polygon's build and each warm-up op.
        Input generation (`prepare`) between the two is not timed."""
        self.corpus = self.w.Corpus(list(self.workload.corpus_keys))
        builds = []
        for key in self.corpus.keys:
            t0 = time.perf_counter()
            self.w.build_model(self.corpus, key)
            builds.append((t0, time.perf_counter()))
        self.workload.prepare(self.corpus)
        warmups = [self.run_op(op)[:2] for op in self.workload.warmup_ops()]
        return builds, warmups

    def run_op(self, op, corpus=None):
        """(start, end, outcome) of one op; only the package call is timed."""
        corpus = corpus or self.corpus
        t0 = time.perf_counter()
        try:
            result = self.workload.run(op, corpus)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            t1 = time.perf_counter()
            return t0, t1, self.w.raised_outcome(exc)
        t1 = time.perf_counter()
        return t0, t1, self.workload.outcome(result)

    def timed(self, op, corpus=None):
        t0, t1, out = self.run_op(op, corpus)
        failed, wrong = self.w.judge(out, self.references.get(op.ref_key))
        self.records.append(Record(op, t0, t1, out, failed, wrong))

    def measure(self, seconds: float) -> int:
        """Whole passes until `seconds` have gone by; returns their number."""
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            for op in self.workload.pass_ops(passes):
                self.timed(op)
            passes += 1
        return passes

    def calibrate(self):
        """Fill in each record's times; call once the probe has stopped."""
        for r in self.records:
            r.wall_s, r.seconds = self.probe.calibrate(r.t0, r.t1)


def summarize(records: List[Record], attr: str = "seconds"):
    times = [getattr(r, attr) for r in records]
    busy = sum(times)
    failed = sum(1 for r in records if r.failed)
    value, pct, beyond = tail(times)
    outcomes = [r.outcome for r in records]
    metrics = {
        "ops_per_s": ((len(records) - failed) / busy, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (value, "s"),
        "error_rate": (failed / len(records), "ratio"),
        "psi_steps_per_s": (sum(o.steps for o in outcomes) / busy, "1/s"),
        "samples_per_s": (sum(o.valid for o in outcomes) / busy, "1/s"),
    }
    info = {"tail_percentile": pct, "tail_ops": len(records),
            "tail_ops_beyond": beyond, "busy_s": busy}
    return metrics, info


WORKLOAD_METRICS = {
    "orbit-near": ("psi_steps_per_s",),
    "orbit-far": ("psi_steps_per_s",),
    "verify": ("samples_per_s",),
    "necklace": ("samples_per_s",),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(probe, import_span, builds, warmups) -> dict:
    """Calibrated and wall seconds of one set-up and of its three parts."""
    parts = {"import": [import_span], "build": builds, "warmup": warmups}
    out = {"setup_s": 0.0, "wall_setup_s": 0.0}
    for part, spans in parts.items():
        pairs = [probe.calibrate(*span) for span in spans]
        out[f"{part}_s"] = sum(c for _, c in pairs)
        out["setup_s"] += out[f"{part}_s"]
        out["wall_setup_s"] += sum(w for w, _ in pairs)
    return out


def setup_only(args, probe, import_span):
    """One cold set-up, for a parent run's median; prints its seconds."""
    run = Run(args, probe)
    builds, warmups = run.setup()
    probe.stop()
    print(json.dumps(setup_seconds(probe, import_span, builds, warmups)))


def child_setups(args) -> List[dict]:
    """SETUP_CHILDREN cold set-ups, each in its own process, one at a time."""
    out = []
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, "-B", os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=150)
        except subprocess.TimeoutExpired:
            raise SetupError("set-up child timed out") from None
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["no message"]
            raise SetupError(f"set-up child exited {proc.returncode}: {lines[-1]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def untraced(args, spec, probe, import_span, children):
    run = Run(args, probe)
    builds, warmups = run.setup()
    passes = run.measure(args.seconds)
    probe.stop()
    run.calibrate()
    metrics, info = summarize(run.records)
    wall, _ = summarize(run.records, "wall_s")
    own = setup_seconds(probe, import_span, builds, warmups)
    rounds = children + [own]
    metrics["setup_s"] = (statistics.median(r["setup_s"] for r in rounds), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    info.update({
        "passes": passes,
        "machine_speed": probe.speed(),
        "setup_rounds_s": [r["setup_s"] for r in rounds],
        "wall_setup_s": statistics.median(r["wall_setup_s"] for r in rounds),
        "wall_ops_per_s": wall["ops_per_s"][0],
        "wall_op_p50_s": wall["op_p50_s"][0],
        "wall_op_tail_s": wall["op_tail_s"][0],
        "import_s": own["import_s"],
        "build_s": own["build_s"],
        "warmup_s": own["warmup_s"],
        "warmup_ops": len(warmups),
    })
    wanted = [m["name"] for m in spec["end_to_end"]]
    wanted += [m for m in ("error_rate",) + WORKLOAD_METRICS[args.workload]
               if m not in wanted]
    return run, {m: metrics[m] for m in wanted}, wanted[:len(spec["end_to_end"])], info


def traced(args, spec, probe, import_span):
    """Time a fixed op set untraced, then set up and run it again traced."""
    from tracer import Tracer

    run = Run(args, probe)
    ops = [op for p in range(run.workload.trace_passes)
           for op in run.workload.pass_ops(p)]
    run.corpus = run.w.Corpus(list(run.workload.corpus_keys))
    t0 = time.perf_counter()
    run.w.build_models(run.corpus)
    plain = [(t0, time.perf_counter())]
    run.workload.prepare(run.corpus)
    for op in run.workload.warmup_ops():
        run.run_op(op)
    t0 = time.perf_counter()
    for op in ops:
        run.run_op(op)
    plain.append((t0, time.perf_counter()))

    tracer = Tracer()
    tracer.install(extra_modules=[run.w])
    try:
        corpus = run.w.Corpus(list(run.workload.corpus_keys))
        t0 = time.perf_counter()
        tracer.run_span("bench.setup", run.w.build_models, corpus)
        with_trace = [(t0, time.perf_counter())]
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op_id = i
            tracer.run_span("bench.op", run.timed, op, corpus)
        with_trace.append((t0, time.perf_counter()))
    finally:
        tracer.uninstall()
        probe.stop()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json.gz")
    tracer.write(span_file)
    metrics = layer_metrics(tracer, run.records, spec)
    plain = [probe.calibrate(*span) for span in plain]
    with_trace = [probe.calibrate(*span) for span in with_trace]
    untraced_s = sum(c for _, c in plain)
    traced_s = sum(c for _, c in with_trace)
    info = {"untraced_wall_s": sum(w for w, _ in plain),
            "traced_wall_s": sum(w for w, _ in with_trace),
            "untraced_s": untraced_s, "traced_s": traced_s,
            "tracing_overhead_s": traced_s - untraced_s,
            "tracing_overhead_ratio": traced_s / untraced_s - 1,
            "spans": len(tracer.start), "span_file": os.path.relpath(span_file, ROOT),
            "trace_ops": len(ops)}
    return run, metrics, [m["name"] for m in spec["per_layer"]], info


def layer_metrics(tracer, records, spec):
    agg = tracer.aggregate()
    counts = tracer.counts

    def span(name, field):
        return agg.get(name, {}).get(field, 0)

    outcomes = [r.outcome for r in records]
    steps = sum(o.steps for o in outcomes)
    runs = sum(o.label_runs for o in outcomes)
    valid = sum(o.valid for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    cin = counts["geometry.region_build.constraints_in"]
    tv_calls = span("billiards.tangent_vertex", "calls")
    derived = {
        "billiards.tangent_vertex.us_per_call":
            (1e6 * span("billiards.tangent_vertex", "total_s") / tv_calls
             if tv_calls else 0.0),
        "scalars.sign.calls": counts["scalars.sign.calls"],
        "scalars.quad_ops": counts["scalars.quad_ops"],
        "dynamics.psi_steps_per_label_run": steps / runs if runs else 0.0,
        "geometry.region_build.constraints_in": cin,
        "geometry.region_build.kept_ratio":
            counts["geometry.region_build.constraints_kept"] / cin if cin else 0.0,
        "verify.valid_ratio": valid / attempted if attempted else 0.0,
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in derived:
            value = derived[name]
        else:
            base, field = name.rsplit(".", 1)
            value = span(base, field)
        out[name] = (value, m["unit"])
    return out


# ---------------------------------------------------------------------------
# reporting


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as a JSON line")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print its seconds (for a parent run)")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise SetupError(f"unknown workload {args.workload!r}; one of {names}")
        if not os.path.isdir(SRC):
            raise SetupError(f"no package source in {SRC}")
        children = [] if args.trace or args.setup_only else child_setups(args)
        probe = SpeedProbe()
        probe.start()
        try:
            import_span = import_package()
            if args.setup_only:
                setup_only(args, probe, import_span)
                return 0
            if args.trace:
                run, metrics, result_names, info = traced(args, spec, probe,
                                                          import_span)
            else:
                run, metrics, result_names, info = untraced(args, spec, probe,
                                                            import_span, children)
        finally:
            probe.stop()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    records = run.records
    failed = sum(1 for r in records if r.failed)
    wrong = [r for r in records if r.wrong]
    prov = provenance(args, spec)
    print(f"workload {args.workload}: {prov['why'][args.workload]}")
    print(f"seed {args.seed}  python {prov['python']}  nproc {prov['nproc']}  "
          f"git {prov['git_rev'][:12]}  src {prov['src_sha256'][:12]}")
    per_key = {}
    for r in records:
        per_key[r.op.polygon_key] = per_key.get(r.op.polygon_key, 0) + 1
    print(f"ops {len(records)} attempted, {failed} failed, {len(wrong)} "
          f"disagree with the reference; per polygon {per_key}")
    for r in records:
        if r.failed:
            why = r.outcome.summary.get("raised", "report did not pass")
            if r.wrong and "raised" not in r.outcome.summary:
                why = "output differs from the reference"
            where = f" (at {r.outcome.where})" if r.outcome.where else ""
            print(f"  {'WRONG' if r.wrong else 'failed'} {r.op.ref_key}: "
                  f"{why[:160]}{where}")
    for key, value in info.items():
        print(f"  {key} = {fmt(value)}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {fmt(value):>14}  {unit}")
    if not args.trace:
        print(f"op_tail_s is p{info['tail_percentile']:.4g} of "
              f"{info['tail_ops']} ops ({info['tail_ops_beyond']} beyond it)")
    result = {"correct": not wrong, "attempted": len(records), "failed": failed,
              "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                          for n in result_names}}
    if args.out:
        full = dict(result, schema="bench-result/1", provenance=prov,
                    metrics={n: {"value": v, "unit": u}
                             for n, (v, u) in metrics.items()},
                    info=info, ops_per_polygon=per_key,
                    op_seconds=[[r.op.ref_key, r.seconds, r.wall_s] for r in records])
        with open(args.out, "a") as fh:
            fh.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
