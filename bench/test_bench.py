"""Self-tests of the benchmark: the gate trips, bad checkouts are refused.

    python3 -m pytest -q bench/test_bench.py

Each end-to-end test runs `run.py` as a subprocess in a copy of the checkout
under pytest's temporary directory, so the repository is never modified.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench

IGNORE = shutil.ignore_patterns("__pycache__", ".bench_out")


def _checkout(tmp_path, with_src=True):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench", ignore=IGNORE)
    if with_src:
        shutil.copytree(bench.SRC, tmp_path / "src", ignore=IGNORE)
    return tmp_path


def _run(root, *args):
    out = root / "result.jsonl"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--out", str(out)],
        cwd=root, capture_output=True, text=True, timeout=170)
    full = json.loads(out.read_text().splitlines()[-1]) if out.exists() else None
    return proc, full


def _first_op(workload, seed):
    bench.import_package()
    import workloads

    return workloads.WORKLOAD_TYPES[workload](seed).pass_ops(0)[0]


@pytest.mark.parametrize("corrupt", [False, True])
def test_gate_trips_on_a_corrupted_reference(tmp_path, corrupt):
    root = _checkout(tmp_path)
    if corrupt:
        path = root / "bench" / "references" / "orbit-near.json"
        doc = json.loads(path.read_text())
        key = _first_op("orbit-near", 5).ref_key
        doc["entries"][key]["digest"] = "0" * 64
        path.write_text(json.dumps(doc))
    proc, full = _run(root, "--workload", "orbit-near", "--seed", "5",
                      "--seconds", "1")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    error_rate = full["metrics"]["error_rate"]["value"]
    if corrupt:
        assert proc.returncode == 1
        assert last["correct"] is False and last["failed"] >= 1
        assert error_rate > 0
    else:
        assert proc.returncode == 0, proc.stderr
        assert last["correct"] is True and last["failed"] == 0
        assert error_rate == 0


def test_refuses_a_checkout_without_the_package(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit-near", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout


def test_known_crash_is_failed_but_not_wrong():
    bench.import_package()
    import workloads as w

    refs = w.load_references("verify")
    for kite in ("sqrt5-kite", "penrose-kite"):
        assert refs[kite]["raised"].startswith("TypeError")
        assert kite in w.Verify(11).corpus_keys
    crash = w.raised_outcome(TypeError(refs["sqrt5-kite"]["raised"][11:]))
    assert w.judge(crash, refs["sqrt5-kite"]) == (True, False)
    other = w.raised_outcome(ValueError("x"))
    assert w.judge(other, refs["sqrt5-kite"]) == (True, True)
    assert w.judge(crash, None) == (True, True)


def test_tail_needs_ten_ops_beyond_it():
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert bench.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)
