"""The command line under generated input: every call of every command ends
in exit code 0, 2 or 3 and prints one JSON document (verify: its report
lines), within the `within_seconds` alarm.

The polygons are small cycles over Q and Q(sqrt 5): raw vertex lists, their
convex hulls in both orientations, {n/k} stars on points of a parabola,
and cycles with a repeated or a collinear vertex.  The points are drawn at
random or placed on a vertex, an edge midpoint or a vertex reflected through
another, and passed as an argv item of their own, so negative coordinates
come without '='."""

import inspect
import json
import re
import signal
import textwrap
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from outerbilliards import polygon as polygon_module
from outerbilliards.cli import main
from outerbilliards.dynamics import ORBIT_MAPS
from outerbilliards.errors import NotConvexError
from outerbilliards.geometry import Point
from outerbilliards.polygon import NicePolygon
from outerbilliards.scalars import QuadExt, quadext, scalar_to_json

# points (x, x^2) with x in a Sidon set lie in convex position in the order
# of x, and no two of their chords are parallel (a chord's slope is the sum
# of its two x): a star on them breaks only the wrap count
SIDON = (1, 2, 4, 8, 13, 21, 31, 45, 66)
SMALL = st.fractions(-6, 6, max_denominator=3)


def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _hull(points):
    """The strictly convex hull, counterclockwise (Andrew's monotone chain);
    the distinct points where they are collinear."""
    pts = sorted(set(points), key=lambda p: (p.x, p.y))
    chain = []
    for seq in (pts, pts[::-1]):
        start = len(chain)
        for p in seq:
            while len(chain) >= start + 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chain.pop()
    return chain if len(chain) >= 3 else pts


@st.composite
def polygons(draw):
    """(vertices, field): a vertex list of one of the five kinds, and its
    field, "rational" or {"quad": 5}."""
    quad = draw(st.booleans())
    if quad:
        scalar = st.builds(lambda a, b: quadext(a, b, 5), SMALL,
                           st.sampled_from([0, 1, -1, Fraction(1, 2)]))
    else:
        scalar = SMALL
    kind = draw(st.sampled_from(["hull", "star", "cycle", "hull", "star", "repeated", "hull",
                                 "star", "collinear", "hull"]))
    if kind == "star":
        n, k = draw(st.sampled_from([(5, 2), (7, 2), (7, 3)]))
        xs = sorted(draw(st.sets(st.sampled_from(SIDON), min_size=n, max_size=n)))
        shift = quadext(0, 1, 5) if quad else Fraction(0)
        vertices = [Point(xs[i * k % n] + shift, Fraction(xs[i * k % n] ** 2)) for i in range(n)]
    else:
        vertices = draw(st.lists(st.builds(Point, scalar, scalar), min_size=3, max_size=6))
        if kind == "hull":
            vertices = _hull(vertices)[::draw(st.sampled_from([1, -1]))]
        elif kind in ("repeated", "collinear"):
            i = draw(st.integers(0, len(vertices) - 1))
            v, w = vertices[i], vertices[i - 1]
            extra = v if kind == "repeated" else Point((v.x + w.x) / 2, (v.y + w.y) / 2)
            vertices.insert(i, extra)
    return vertices, {"quad": 5} if quad else "rational"


@st.composite
def points(draw, vertices):
    """A point's "x,y" text: drawn, or a vertex, an edge midpoint or a
    vertex reflected through another, where that point is rational."""
    v, w = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
    placed = {"vertex": v, "midpoint": Point((v.x + w.x) / 2, (v.y + w.y) / 2),
              "reflected": Point(2 * w.x - v.x, 2 * w.y - v.y)}
    p = placed.get(draw(st.sampled_from(["drawn", *placed])))
    if p is None or isinstance(p.x, QuadExt) or isinstance(p.y, QuadExt):
        p = Point(draw(st.fractions(-60, 60, max_denominator=7)),
                  draw(st.fractions(-60, 60, max_denominator=7)))
    return f"{p.x},{p.y}"


@st.composite
def calls(draw):
    """(vertices, field, argvs): a polygon and one argv for each of the six
    commands, the polygon file left out."""
    vertices, field = draw(polygons())
    return vertices, field, [
        ["validate"],
        ["partition", *["--backward"] * draw(st.booleans())],
        ["classify", "--point", draw(points(vertices))],
        ["orbit", "--point", draw(points(vertices)), "--map",
         draw(st.sampled_from(sorted(ORBIT_MAPS))), "--steps", str(draw(st.integers(0, 40)))],
        ["verify", "--samples", "2"],
        ["quasi", *["--certify", draw(points(vertices))] * draw(st.booleans())],
    ]


REPORT_LINE = re.compile(r"\[0\] |RESULT: (PASS|FAIL)$")


def _run(capsys, path, vertices, field, argvs):
    path.write_text(json.dumps({"schema": "polygon/1", "field": field, "vertices": [
        [scalar_to_json(v.x), scalar_to_json(v.y)] for v in vertices]}))
    for command, *args in argvs:
        signal.setitimer(signal.ITIMER_REAL, 5.0)  # `within_seconds`'s alarm, armed per call
        code = main([command, str(path), *args])
        out = capsys.readouterr().out
        assert code in (0, 2, 3), (command, args, code, out)
        if command == "verify" and code != 2:
            assert all(REPORT_LINE.match(line) for line in out.splitlines()), out
            assert out.endswith("RESULT: PASS\n")
        else:
            assert isinstance(json.loads(out), dict)


# derandomized and not shrunk: a failure reproduces as drawn; about 5 s
FUZZ = settings(max_examples=110, deadline=None, database=None, derandomize=True,
                phases=(Phase.explicit, Phase.generate),
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(call=calls())
def test_every_command_exits_0_2_or_3_with_one_document(tmp_path, capsys, within_seconds, call):
    _run(capsys, tmp_path / "poly.json", *call)


def test_fuzz_finds_a_star_past_an_unwound_validation(tmp_path, capsys, within_seconds,
                                                      monkeypatch):
    """Negative control: with `_validate`'s wrap count taken out, a star
    passes as a nice polygon, and the fuzz test's own calls (the same
    derandomized examples) must find one that breaks the promise."""
    source = textwrap.dedent(inspect.getsource(polygon_module._validate))
    assert source.count("wraps != 1") == 1
    namespace = dict(vars(polygon_module))
    exec(source.replace("wraps != 1", "False"), namespace)
    monkeypatch.setattr(polygon_module, "_validate", namespace["_validate"])
    seen, promise = [], _run

    def run(capsys, path, *call):
        seen.append(call)
        promise(capsys, path, *call)

    monkeypatch.setitem(globals(), "_run", run)
    fuzz = test_every_command_exits_0_2_or_3_with_one_document.hypothesis.inner_test
    with pytest.raises(Exception):
        FUZZ(given(call=calls())(fuzz))(tmp_path, capsys, within_seconds)
    monkeypatch.undo()
    with pytest.raises(NotConvexError, match="wind"):
        NicePolygon.from_points(seen[-1][0])
