"""The traced benchmark (`bench/tracer.py`) wraps package callables named by
(module, attribute path) strings; each must resolve here, so a rename or a
reshape fails in the test suite and not only in a traced benchmark run.  The
tracer module is loaded read-only from the checkout."""

import importlib.util
from pathlib import Path

import outerbilliards
from oracles import pt
from outerbilliards import verify
from outerbilliards.dynamics import pinwheel_theorem_step
from outerbilliards.model import BilliardModel
from outerbilliards.polygon import NicePolygon
from outerbilliards.scalars import QuadExt

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    """As `Tracer.install` looks them up: the last attribute is defined on
    its owner itself, not inherited."""
    for name, (module, path) in load_tracer().SPANS.items():
        owner = getattr(outerbilliards, module)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), name


def test_every_quad_op_is_defined_on_quadext():
    """`Tracer.install` wraps each `QUAD_OPS` name as `vars(QuadExt)[name]`:
    each must be defined on `QuadExt` itself, so deleting one (`_inverse`
    has no caller in the package) fails here and not only in a traced run."""
    for name in load_tracer().QUAD_OPS:
        assert name in vars(QuadExt), name


def test_verify_checks_resolve():
    checks = load_tracer().VERIFY_CHECKS
    assert set(checks) == set(verify.CHECKS)
    for check, fn in checks.items():
        assert callable(getattr(verify, fn)), check


def test_traced_theorem_step_counts_its_strip_maps():
    """Installed, the tracer sees one `strips.strip_map` span per pinwheel
    step inside `dynamics.pinwheel_theorem_step`; uninstalled, the package
    is as it was."""
    model = BilliardModel(NicePolygon.from_points(
        [pt(0, 0), pt(-1, 3), pt(2, 5), pt(5, 2), pt(4, -1)]))
    p = model.polygon.homogeneous(pt(9, -4))
    _, orbit, _ = pinwheel_theorem_step(model, p)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        outerbilliards.dynamics.pinwheel_theorem_step(model, p)
    finally:
        tracer.uninstall()
    spans = tracer.aggregate()
    assert spans["dynamics.pinwheel_theorem_step"]["calls"] == 1
    assert spans["strips.strip_map"]["calls"] == len(orbit)
    assert outerbilliards.dynamics.pinwheel_theorem_step is pinwheel_theorem_step
