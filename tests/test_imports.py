"""Module boundaries: no package module reaches into another's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "outerbilliards"


def test_no_private_name_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "outerbilliards":
                continue
            offenders.extend(f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_"))
    assert offenders == []
