"""Exactness guard: the computational kernel never brings in floats.

A float literal, a `float(...)` call or `math.sqrt` in a kernel module would
round somewhere; so would a stray true division on two ints, which is why the
integer sign tests in `geometry` stay inside this guard.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "outerbilliards"
KERNEL = ("geometry", "polygon", "billiards", "strips", "dynamics", "paths",
          "quasirational")


def float_sites(source: str, filename: str = "<source>"):
    """(line, what) of every float literal, `float(` call and `math.sqrt`."""
    sites = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            sites.append((node.lineno, "float() call"))
        elif (isinstance(node, ast.Attribute) and node.attr == "sqrt"
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            sites.append((node.lineno, "math.sqrt"))
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(alias.name == "sqrt" for alias in node.names)):
            sites.append((node.lineno, "from math import sqrt"))
    return sites


@pytest.mark.parametrize("module", KERNEL)
def test_kernel_module_has_no_float_sites(module):
    path = PACKAGE / f"{module}.py"
    assert float_sites(path.read_text(encoding="utf-8"), str(path)) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5\n",
    "y = float(t)\n",
    "import math\nr = math.sqrt(2)\n",
    "from math import sqrt\n",
    "z = 1e-9 * w\n",
])
def test_guard_trips_on_each_float_site(snippet):
    assert float_sites(snippet) != []
