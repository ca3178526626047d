"""Statement traffic of the package: which statements a standard run never reaches.

Runs, under `sys.settrace`, one pass of each benchmark workload's ops at
seed 1, with the models built as the benchmark's set-up builds them (through
a read-only import of `bench/workloads.py`), and a matrix of 50 CLI runs:
validate, partition --backward --json --svg, classify, verify
--negative-controls, quasi --certify and all five orbit maps with --svg
--escape, on the CI hexagon, the Penrose kite, the triangle,
`random_nice_polygon(5, 9000)` and the benchmark's n12.  Then it prints, per
function of `src/outerbilliards`, the statements that none of them reached:
a statement is the first line of an `ast.stmt` in the function's own body
(nested functions are listed on their own) that the compiled code can reach
at all (`co_lines`).  A statement listed here is dead in every command and
workload, not only in the tests.

Standard library only, and not collected by pytest (no `test_` prefix).  It
writes nothing outside a temporary directory, and no bytecode.  Run from
anywhere:

    python3 tests/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "outerbilliards")

HEXAGON = ('{"schema": "polygon/1", "field": "rational", "vertices": [["0", "0"], ["-2", "3"], '
           '["1", "6"], ["5", "5"], ["8", "1"], ["4", "-2"]]}')
MAPS = ("psi", "psistar", "exit", "return", "stripreturn")
# a point inside strip 0's m = 1 annulus of random_nice_polygon(5, 9000), as in CI
CERTIFY = {"pentagon": "-1690189227/5,12000343371/5"}


def tracer(reached: dict):
    """A `sys.settrace` function that adds, per package file name, the line
    of every line event in a package frame to `reached`."""
    def line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PKG):
            return None
        reached.setdefault(name, set())
        return line

    return call


def run_workloads() -> tuple:
    """One pass of every workload's ops at seed 1: (op count, the ops that
    raised, as "workload op: exception type")."""
    import workloads

    ops, raised = 0, []
    for make in workloads.WORKLOAD_TYPES.values():
        w = make(1)
        corpus = workloads.Corpus(w.corpus_keys)
        workloads.build_models(corpus)
        w.prepare(corpus)
        for op in w.pass_ops(0):
            ops += 1
            try:
                w.run(op, corpus)
            except Exception as exc:  # a raising op is traffic too; it is listed
                raised.append(f"{w.name} {op.ref_key}: {type(exc).__name__}")
    return ops, raised


def run_cli(tmp: str) -> int:
    """The CLI matrix, stdout discarded; returns the run count."""
    import workloads
    from outerbilliards import polygon_to_text, random_nice_polygon
    from outerbilliards.cli import main

    texts = {"hexagon": HEXAGON,
             "penrose-kite": polygon_to_text(workloads.penrose_kite()),
             "triangle": polygon_to_text(workloads.triangle()),
             "pentagon": polygon_to_text(random_nice_polygon(5, 9000)),
             "n12": polygon_to_text(workloads.pool_polygon("n12"))}
    svg, js = os.path.join(tmp, "out.svg"), os.path.join(tmp, "out.json")
    runs = 0
    for key, text in texts.items():
        f = os.path.join(tmp, f"{key}.json")
        with open(f, "w") as fh:
            fh.write(text)
        argvs = [["validate", f],
                 ["partition", f, "--backward", "--json", js, "--svg", svg],
                 ["classify", f, "--point=8,-2"],
                 ["verify", f, "--negative-controls"],
                 ["quasi", f, "--certify=" + CERTIFY.get(key, "5,7/3")]]
        argvs += [["orbit", f, "--point=8,-2", "--map", m, "--steps", "200",
                   "--svg", svg, "--escape", "100"] for m in MAPS]
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)
            runs += 1
    return runs


def _code_lines(code) -> set:
    """Every line any instruction of code, or of a code object nested in it, sits on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _functions(tree):
    """(qualified name, statement first lines) of every function in the tree,
    nested ones on their own; a docstring is no statement."""
    out = []

    def own_statements(body):
        for node in body:
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for field in ("body", "orelse", "finalbody"):
                yield from own_statements(getattr(node, field, ()))
            for handler in getattr(node, "handlers", ()):
                yield from own_statements(handler.body)
            for case in getattr(node, "cases", ()):
                yield from own_statements(case.body)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                body = child.body
                if ast.get_docstring(child) is not None:
                    body = body[1:]
                out.append((name, sorted({s.lineno for s in own_statements(body)})))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def report(reached: dict) -> list:
    """Per file, its reached and total statements, then each function with
    unreached statements: its line numbers and each one's first line."""
    lines, total, hit = [], 0, 0
    for base in sorted(os.listdir(PKG)):
        if not base.endswith(".py"):
            continue
        path = os.path.join(PKG, base)
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        live = _code_lines(compile(source, path, "exec"))
        seen = reached.get(path, set())
        body, file_total, file_hit = [], 0, 0
        for name, stmts in _functions(ast.parse(source)):
            stmts = [n for n in stmts if n in live]
            missed = [n for n in stmts if n not in seen]
            file_total, file_hit = file_total + len(stmts), file_hit + len(stmts) - len(missed)
            if not missed:
                continue
            state = "never called" if len(missed) == len(stmts) else f"{len(missed)} of {len(stmts)}"
            body.append(f"  {name} ({state})")
            body += [f"    {n}: {text[n - 1].strip()}" for n in missed]
        total, hit = total + file_total, hit + file_hit
        lines.append(f"{base}: {file_hit} of {file_total} statements reached")
        lines += body
    lines.append(f"total: {hit} of {total} statements reached")
    return lines


def main() -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/ or src/
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    reached: dict = {}  # package file name -> line numbers a line event reported
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(tracer(reached))
        try:
            (ops, raised), runs = run_workloads(), run_cli(tmp)
        finally:
            sys.settrace(None)
    print(f"traffic: {ops} workload ops at seed 1 and {runs} CLI runs, "
          f"{time.perf_counter() - start:.1f} s under sys.settrace")
    print("ops that raised: " + (", ".join(raised) or "none"))
    print("\n".join(report(reached)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
