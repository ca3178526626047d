"""Module boundaries: no package module reaches into another's private names,
and only `scalars` knows how a Q(sqrt d) number is built."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "outerbilliards"
QUADRATIC_INTERNALS = {"QuadExt", "QuadInt"}


def package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_private_name_imported_across_modules():
    offenders = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "outerbilliards":
                continue
            offenders.extend(f"{name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_"))
    assert offenders == []


def test_only_scalars_names_the_quadratic_types():
    """Other modules reach Q(sqrt d) through `as_integer_ratio`, `ratio`,
    `sign`, `int_parts` and `primitive`, and read the int parts the ψ walk
    carries with `quad_sign` and `quad_floor_div`; `__init__` only re-exports."""
    offenders = []
    for name, tree in package_trees():
        if name in ("scalars.py", "__init__.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            else:
                continue
            offenders.extend(f"{name}: {u}" for u in used if u in QUADRATIC_INTERNALS)
    assert offenders == []
