"""Command-line interface: outputs, exit codes, reproducibility."""

import hashlib
import inspect
import json
import re
import sys
import textwrap
import time
from fractions import Fraction

import pytest

from outerbilliards import cli
from outerbilliards import polygon as polygon_module
from outerbilliards.cli import main
from outerbilliards.generate import random_nice_polygon
from outerbilliards.geometry import Point
from outerbilliards.polygon import NicePolygon, polygon_to_text
from outerbilliards.report import CheckReport

TRIANGLE_DOC = '{"field": "rational", "vertices": [["0","0"],["1","3"],["4","0"]]}'
SQUARE_DOC = '{"field": "rational", "vertices": [["0","0"],["0","1"],["1","1"],["1","0"]]}'


@pytest.fixture()
def tri_file(tmp_path):
    f = tmp_path / "tri.json"
    f.write_text(TRIANGLE_DOC)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_triangle(tri_file, capsys):
    code, out = run(capsys, "validate", tri_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["n"] == 3
    bottom = next(p for p in doc["pinwheel_pairs"] if p["index"] == 1)
    assert bottom["V"] == ["2", "6"]
    assert bottom["width"] == "6"


def test_validate_square_is_input_error(tmp_path, capsys):
    f = tmp_path / "sq.json"
    f.write_text(SQUARE_DOC)
    code, out = run(capsys, "validate", str(f))
    assert code == 2
    assert "parallel" in json.loads(out)["error"].lower()


def test_validate_unreadable_file(capsys):
    code, out = run(capsys, "validate", "/nonexistent/poly.json")
    assert code == 2


def test_classify_worked_example(tri_file, capsys):
    code, out = run(capsys, "classify", tri_file, "--point", "8,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == [1, 2]
    assert doc["translation"] == ["2", "6"]
    assert doc["bounded"] is False


# stdout at the triangle's wall point (6, 0), recorded when classify and
# orbit each caught MapUndefinedError themselves
WALL_ERROR = ('{\n  "error": "map undefined on a wall (stage 1): '
              'Point(x=Fraction(6, 1), y=Fraction(0, 1))",\n  "schema": "%s/1"\n}\n')


def test_classify_wall_point_distinct_exit_code(tri_file, capsys):
    code, out = run(capsys, "classify", tri_file, "--point", "6,0")
    assert code == 3
    assert out == WALL_ERROR % "classify"


def test_classify_bad_point_is_input_error(tri_file, capsys):
    code, _ = run(capsys, "classify", tri_file, "--point", "oops")
    assert code == 2


def test_partition_json_and_svg(tri_file, tmp_path, capsys):
    svg = tmp_path / "part.svg"
    js = tmp_path / "part.json"
    code, _ = run(capsys, "partition", tri_file, "--svg", str(svg),
                  "--json", str(js))
    assert code == 0
    doc = json.loads(js.read_text())
    assert len(doc["tiles"]) == 6
    assert svg.read_text().startswith('<?xml')
    # backward partition doubles the tile list for the triangle
    code, out = run(capsys, "partition", tri_file, "--backward")
    assert code == 0
    assert len(json.loads(out)["tiles"]) == 12


# sha256 of `partition --backward` stdout, recorded with the O(n^2)
# vertex-pair tangent rule and all-vertex cones; pins tiles, constraints, paths.
# The n=12 and Penrose kite digests were recorded with the Fourier-Motzkin
# region kernel: each tile lists its stored constraints in stored order.
PARTITION_BACKWARD_SHA256 = {
    "triangle": "e52bf7c19472966ac8445a6d04fd39b542a31903b22e0d5fb5c11a8ab055ab2e",
    "pentagon": "8ea021979b81b58de92c17797c9d7c2d007cdd1439e55dc201265942f978929d",
    "n12": "a84bfd6dc44705353eb361bde19efb0fe03047ca931b23505e0e302eb6c00008",
    "penrose_kite": "c46dd7c1c1bd15701af11cc579bee1f2773252b7f45b5c8260650fe2782988e2",
}


@pytest.mark.parametrize("poly_key", sorted(PARTITION_BACKWARD_SHA256))
def test_partition_backward_json_golden(poly_key, tri_file, tmp_path, capsys):
    from test_verify import penrose_kite

    polys = {"pentagon": lambda: random_nice_polygon(5, seed=21),
             "n12": lambda: random_nice_polygon(12, seed=21),
             "penrose_kite": penrose_kite}
    f = tri_file
    if poly_key in polys:
        f = tmp_path / f"{poly_key}.json"
        f.write_text(polygon_to_text(polys[poly_key]()))
    code, out = run(capsys, "partition", str(f), "--backward")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PARTITION_BACKWARD_SHA256[poly_key]


GOLDEN_STARTS = ("5,7/3", "8,-2", "1000,1/3")
GOLDEN_MAPS = ("psi", "psistar", "exit", "return", "stripreturn")


def golden_polygon_text(poly_key):
    from test_quasirational import sqrt5_kite, sqrt5_pentagon
    from test_verify import penrose_kite

    if poly_key == "triangle":
        return TRIANGLE_DOC
    if poly_key == "sqrt5_pentagon":
        return polygon_to_text(sqrt5_pentagon())
    if poly_key in ("sqrt5_kite", "penrose_kite"):
        kite = {"sqrt5_kite": sqrt5_kite, "penrose_kite": penrose_kite}[poly_key]
        return polygon_to_text(kite())
    n = int(poly_key[1:])
    return polygon_to_text(random_nice_polygon(n, seed=n))


# `quasi --certify` points: inside an annulus where the default is not
CERTIFY_POINTS = {"sqrt5_pentagon": "339113161581/155,-1320353506152/85"}


def cli_output_digests(poly_file, tmp_path, capsys, certify="5,7/3"):
    """sha256 of every command's exit code, stdout and written files, by command."""
    def out(*argv):
        code, text = run(capsys, *argv)
        return f"{code}\n{text}"

    f = str(poly_file)
    svg, js, vjs = (tmp_path / name for name in ("p.svg", "p.json", "v.json"))
    groups = {
        "validate": out("validate", f),
        "partition": (out("partition", f, "--backward")
                      + out("partition", f, "--json", str(js), "--svg", str(svg))
                      + js.read_text() + svg.read_text()),
        "quasi": out("quasi", f, "--m", "2", "--certify", certify),
        "classify": "".join(out("classify", f, "--point", p) for p in GOLDEN_STARTS),
        "orbit": "".join(out("orbit", f, "--point", p, "--map", m, "--steps", "30")
                         for p in GOLDEN_STARTS for m in GOLDEN_MAPS),
        "verify": (out("verify", f, "--samples", "6", "--negative-controls",
                       "--json", str(vjs)) + vjs.read_text()),
    }
    return {k: hashlib.sha256(v.encode()).hexdigest()[:16] for k, v in groups.items()}


# Truncated sha256 of each command group's output, recorded before tiles
# reached their paths by label and before ring copies became rigid motions.
CLI_OUTPUT_SHA256 = {
    "triangle": {
        "validate": "f5f00d0e27c75c80",
        "partition": "f82cc8a8a3f8670d",
        "quasi": "c9fa100b9fe2ca55",
        "classify": "adf6221d372753a0",
        "orbit": "be6970840593b5d6",
        "verify": "2100ce64ac8f439e",
    },
    "n3": {
        "validate": "da724c66f3dc16b6",
        "partition": "a224bc2d3e3e8a67",
        "quasi": "b434690adbde692f",
        "classify": "40df603e96f76357",
        "orbit": "30f483866128e12f",
        "verify": "aae36abcde90e74a",
    },
    "n4": {
        "validate": "9b90dfb6de4f6f8c",
        "partition": "a3f448d3453e5f46",
        "quasi": "82bb15a330cf4d9a",
        "classify": "4eb38b39cc74e56f",
        "orbit": "d0e3b83d946d4b27",
        "verify": "c463144aedfd0131",
    },
    "n5": {
        "validate": "fa54abd6ef40da04",
        "partition": "99004d7ac59a95c6",
        "quasi": "18004001d8a1463d",
        "classify": "92a2dc2068f96951",
        "orbit": "e012318e9ae36ba7",
        "verify": "ead433668a904b0f",
    },
    "n6": {
        "validate": "809a96259b42f6da",
        "partition": "bdeb279bdb4dbaff",
        "quasi": "5eb9be7f74e6aa6d",
        "classify": "9746a48da418da40",
        "orbit": "2207ff2d88d2c9fa",
        "verify": "141c784653890f84",
    },
    "n7": {
        "validate": "8d91ecce655fd6d6",
        "partition": "ae2fa9e442831aa1",
        "quasi": "90598cb8f1b31199",
        "classify": "20ba5d4a3d079eaf",
        "orbit": "a5371c34e2cc357a",
        "verify": "21eef868979be300",
    },
    "n8": {
        "validate": "2bc386bfc98cb780",
        "partition": "4c31ff8250dacf00",
        "quasi": "0f309756e449e22e",
        "classify": "63c2c17f8d48f642",
        "orbit": "5faa863c2460d300",
        "verify": "3a44c0d230b52b82",
    },
    "n9": {
        "validate": "7546f7ea0b5f28b0",
        "partition": "9038168c9d96eddb",
        "quasi": "4e8d6b5886586d71",
        "classify": "6a64de14c0968c5d",
        "orbit": "d8ec53bc856c26de",
        "verify": "c46ef84a80f198d2",
    },
    "n10": {
        "validate": "6ba2750347ceaa2a",
        "partition": "50bb2ad9563f2838",
        "quasi": "9ba6ae4c6690be44",
        "classify": "3bd17f4914247f01",
        "orbit": "93d71328d3e9806d",
        "verify": "388525896679aa97",
    },
    "n11": {
        "validate": "addf4f4ced111101",
        "partition": "16081df3963a6be2",
        "quasi": "b03e0536d7f44349",
        "classify": "e8471ec29ec3d550",
        "orbit": "505a5666f4671489",
        "verify": "81e65f0d3e56c2e0",
    },
    "n12": {
        "validate": "10ec02bbb17ff6eb",
        "partition": "f87f0477a14b077e",
        "quasi": "1d2acb12d2ad5d00",
        "classify": "8c96399c044a34b1",
        "orbit": "b28f3b5931075933",
        "verify": "c810bd1fdeed0c96",
    },
    "sqrt5_kite": {
        "validate": "1b0bce3050085177",
        "partition": "f5d36f06437633c2",
        "quasi": "4abb1241a5248006",
        "classify": "e0db664b646919d0",
        "orbit": "28a599c439afab82",
        "verify": "36af5e6f8b95ce69",
    },
    # recorded before the necklace check ran on the lattice end to end
    "sqrt5_pentagon": {
        "validate": "30a4daad47774943",
        "partition": "2980d6bc85221cc7",
        "quasi": "31b1969f685b570b",
        "classify": "00222485210532ff",
        "orbit": "4605298c8d421e71",
        "verify": "611f64c808759c05",
    },
    "penrose_kite": {
        "validate": "4a2180957e3009f2",
        "partition": "eeb9e1df04f611d5",
        "quasi": "cc061b8a854cc322",
        "classify": "179251f0d2aa725e",
        "orbit": "29a7e8550cc1f083",
        "verify": "2e938c17101df3a5",
    },
}


@pytest.mark.parametrize("poly_key", sorted(CLI_OUTPUT_SHA256))
def test_cli_outputs_golden(poly_key, tmp_path, capsys):
    f = tmp_path / f"{poly_key}.json"
    f.write_text(golden_polygon_text(poly_key))
    certify = CERTIFY_POINTS.get(poly_key, "5,7/3")
    assert cli_output_digests(f, tmp_path, capsys, certify) == CLI_OUTPUT_SHA256[poly_key]


def test_orbit_psi_events(tri_file, capsys):
    code, out = run(capsys, "orbit", tri_file, "--point", "8,-2",
                    "--map", "psi", "--steps", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["events"][1]["point"] == ["10", "4"]
    assert doc["events"][1]["event"] == "translated"


def test_orbit_wall_point(tri_file, capsys):
    for name in ("psistar", "stripreturn"):
        code, out = run(capsys, "orbit", tri_file, "--point", "6,0",
                        "--map", name, "--steps", "3")
        assert code == 3
        assert out == WALL_ERROR % "orbit"


def test_orbit_svg_trace(tri_file, tmp_path, capsys):
    svg = tmp_path / "orbit.svg"
    code, _ = run(capsys, "orbit", tri_file, "--point", "8,-2",
                  "--map", "psi", "--steps", "8", "--svg", str(svg))
    assert code == 0
    assert "<polyline" in svg.read_text()


def test_orbit_svg_trace_over_sqrt5(tmp_path, capsys):
    from test_quasirational import sqrt5_kite

    kite, svg = tmp_path / "kite.json", tmp_path / "orbit.svg"
    kite.write_text(polygon_to_text(sqrt5_kite()))
    code, out = run(capsys, "orbit", str(kite), "--point=5,7/3", "--svg", str(svg))
    assert code == 0
    assert json.loads(out)["events"]
    text = svg.read_text()
    assert "<polyline" in text and text.count("<circle") == 2


def test_verify_random_reproducible(capsys):
    code1, out1 = run(capsys, "verify", "--random", "n=4 count=1",
                      "--profile", "quick", "--seed", "11")
    code2, out2 = run(capsys, "verify", "--random", "n=4 count=1",
                      "--profile", "quick", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "RESULT: PASS" in out1


def test_verify_bad_random_spec(capsys):
    code, _ = run(capsys, "verify", "--random", "whatever")
    assert code == 2


def test_verify_negative_controls(tri_file, capsys):
    code, out = run(capsys, "verify", tri_file, "--profile", "quick",
                    "--seed", "1", "--negative-controls")
    assert code == 0  # controls tripping is the expected outcome
    assert "negative-control" in out


def test_quasi_triangle(tri_file, capsys):
    code, out = run(capsys, "quasi", tri_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["quasirational"] is True
    assert doc["areas"] == ["48", "48", "48"]
    assert doc["invariance"]["pass"] is True


def test_quasi_certify(tri_file, capsys):
    code, out = run(capsys, "quasi", tri_file, "--certify", "14,3")
    doc = json.loads(out)
    cert = doc["certificate"]
    if code == 0:
        assert cert["bounded"] is True
    else:
        assert code == 3 and "error" in cert


def _report(check, violated, attempted=1):
    """A report of `attempted` samples, one of them a violation when `violated`."""
    rep = CheckReport(check, {}, 0, attempted=attempted, valid=attempted - violated)
    if violated:
        rep.fail("p", "expected", "actual")
    return rep


def test_verify_violation_exits_1_and_writes_the_report(tri_file, tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda *a, **k: [_report("structure1", True)])
    report = tmp_path / "verify.json"
    code, out = run(capsys, "verify", tri_file, "--json", str(report))
    assert code == 1
    assert out.splitlines()[-1] == "RESULT: FAIL"
    doc = json.loads(report.read_text())
    assert doc["runs"][0]["reports"][0]["pass"] is False


def test_verify_untripped_control_exits_1_and_writes_the_report(tri_file, tmp_path,
                                                               capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_all", lambda *a, **k: [_report("structure1", False)])
    monkeypatch.setattr(cli, "negative_controls",
                        lambda *a, **k: [_report("negative-control-x", False, attempted=3)])
    report = tmp_path / "verify.json"
    code, out = run(capsys, "verify", tri_file, "--negative-controls", "--json", str(report))
    assert code == 1
    assert "[0] !! negative control did not trip" in out.splitlines()
    assert out.splitlines()[-1] == "RESULT: FAIL"
    checks = [r["check"] for r in json.loads(report.read_text())["runs"][0]["reports"]]
    assert checks == ["structure1", "negative-control-x"]


def test_quasi_failed_invariance_exits_1(tri_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_necklace_invariance",
                        lambda *a, **k: _report("necklace-invariance", True))
    code, out = run(capsys, "quasi", tri_file)
    assert code == 1
    assert json.loads(out)["invariance"]["pass"] is False


# a triangle with the vertex (4, 1/0), in plain form and as a {"a","b","d"}
# scalar; then the plain triangle over a "field" whose d is not square-free,
# negative, or a bool, or is the square of the prime 10^9 + 7; last, an array
# nested 5,000 deep, past the JSON parser's recursion limit
BAD_POLYGON_DOCS = {
    "ZERO_DEN": '{"field": "rational", "vertices": [["0","0"],["1","3"],["4","1/0"]]}',
    "ZERO_DEN_QUAD": ('{"field": {"quad": 5}, "vertices": [["0","0"],["1","3"],'
                      '["4",{"a":"1/0","b":"1","d":5}]]}'),
    "QUAD_4": '{"field": {"quad": 4}, "vertices": [["0","0"],["1","3"],["4","0"]]}',
    "QUAD_NEG3": '{"field": {"quad": -3}, "vertices": [["0","0"],["1","3"],["4","0"]]}',
    "QUAD_TRUE": '{"field": {"quad": true}, "vertices": [["0","0"],["1","3"],["4","0"]]}',
    "QUAD_PRIME_SQ": ('{"field": {"quad": 1000000014000000049}, '
                      '"vertices": [["0","0"],["1","3"],["4","0"]]}'),
    "DEEP": "[" * 5000 + "]" * 5000,
    "STAR": ('{"field": "rational", "vertices": [["100","10"],["-86","50"],["40","-92"],'
             '["21","98"],["-75","-67"]]}'),  # a pentagram: clockwise corners, two wraps
}


@pytest.mark.parametrize("argv", [
    ("verify", "--random", "n=15 count=1"),
    ("verify", "--random", "n=4 count=0"),
    ("verify", "--random", "n=4 count=-2"),
    ("orbit", "TRI", "--point", "8,-2", "--escape", "-11"),
    ("orbit", "TRI", "--point", "8,-2", "--escape", "abc"),
    ("orbit", "TRI", "--point", "8,-2", "--steps", "-5"),
    ("quasi", "TRI", "--m", "0"),
    ("verify", "TRI", "--samples", "0"),
    ("verify", "TRI", "--samples", "-3"),
    ("partition", "TRI", "--svg", "/nonexistent/x.svg"),
    ("partition", "TRI", "--json", "/nonexistent/x.json"),
    ("orbit", "TRI", "--point", "8,-2", "--steps", "3", "--json", "/nonexistent/x.json"),
    ("orbit", "TRI", "--point", "8,-2", "--steps", "3", "--svg", "/nonexistent/x.svg"),
    ("verify", "TRI", "--json", "/nonexistent/x.json"),
    ("classify", "TRI", "--point", "1/0,2"),
    ("orbit", "TRI", "--point", "1,1/0"),
    ("quasi", "TRI", "--certify", "5,1/0"),
    ("validate", "ZERO_DEN"),
    ("validate", "ZERO_DEN_QUAD"),
    ("validate", "QUAD_4"),
    ("validate", "QUAD_NEG3"),
    ("validate", "QUAD_TRUE"),
    ("validate", "QUAD_PRIME_SQ"),
    ("orbit", "TRI", "--point", "8,-2", "--steps", "abc"),
    ("orbit", "TRI", "--point", "8,-2", "--map", "bogus"),
    ("orbit", "TRI"),
    ("verify", "TRI", "--seed", "x"),
    (),
    ("validate", "DEEP"),
    ("partition", "DEEP"),
    ("quasi", "DEEP"),
    ("verify",),
    ("validate", "STAR"),
    ("partition", "STAR"),
    ("classify", "STAR", "--point", "500,1"),
    ("orbit", "STAR", "--point", "500,1"),
    ("verify", "STAR"),
    ("quasi", "STAR"),
])
def test_bad_argument_is_json_input_error(argv, tri_file, tmp_path, capsys):
    files = {"TRI": tri_file}
    for name, doc in BAD_POLYGON_DOCS.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(doc)
    code, out = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2
    assert json.loads(out)["error"]


def _field_doc(tmp_path, d):
    f = tmp_path / "field.json"
    f.write_text(TRIANGLE_DOC.replace('"rational"', f'{{"quad": {d}}}'))
    return str(f)


@pytest.mark.parametrize("argv, code", [
    (("orbit", "TRI", "--point", "1e5000,1/3"), 2),
    (("orbit", "TRI", "--point", "1e1000,1/3", "--steps", "1"), 0),  # the bound itself
    (("orbit", "TRI", "--point", "1e1001,1/3", "--steps", "1"), 2),
    (("orbit", "TRI", "--point", "1e-1001,1/3", "--steps", "1"), 2),
    (("orbit", "TRI", "--point", "8," + "1" * 1000, "--steps", "1"), 0),
    (("orbit", "TRI", "--point", "8," + "1" * 1001, "--steps", "1"), 2),
    (("orbit", "TRI", "--point", "8,-2", "--escape", "1e1001"), 2),
    (("quasi", "TRI", "--certify", "5,1e1001"), 2),
    (("validate", "D", 2 ** 64 - 1), 0),  # square-free: 3*5*17*257*641*65537*6700417
    (("validate", "D", 2 ** 64 + 1), 2),  # square-free too: 274177 * 67280421310721
    (("validate", "D", 10 ** 69 + 7), 2),
])
def test_inputs_past_their_bound_are_json_input_errors(argv, code, tri_file, tmp_path,
                                                       capsys, within_seconds):
    """Scalar text is bounded to 1000 characters and an exponent of 1000,
    and a radicand to d < 2**64, before any number is built from them."""
    if argv[1] == "D":
        argv = (argv[0], _field_doc(tmp_path, argv[2]))
    got, out = run(capsys, *[tri_file if a == "TRI" else a for a in argv])
    assert got == code
    if code == 2:
        assert "2**64" in json.loads(out)["error"] or "past 1000" in out


@pytest.mark.parametrize("argv", [
    ("validate", "BIG"),
    ("partition", "BIG"),
    ("quasi", "TRI", "--m", "9" * 10 ** 6),
    ("verify", "--random", "n=5 count=" + "9" * 10 ** 6),
])
def test_megadigit_integers_are_refused_before_they_are_read(argv, tri_file, tmp_path,
                                                             capsys, within_seconds):
    """A million-digit int (reading it, then printing it, takes seconds at
    any digit limit) exits 2 at once: a polygon file's JSON ints and the
    --random spec's are bounded to 1000 characters, and argv's int options
    are read before `main` lifts the int-to-str limit."""
    big = tmp_path / "big.json"
    big.write_text(TRIANGLE_DOC.replace('"rational"', '"rational", "pad": ' + "9" * 10 ** 6))
    got, out = run(capsys, *[{"TRI": tri_file, "BIG": str(big)}.get(a, a) for a in argv])
    assert got == 2
    assert json.loads(out)["error"]


def _perturbed_doc(n: int, seed: int, count: int) -> str:
    """random_nice_polygon(n, seed) with 1/(10**490 + k) added to its k-th
    coordinate for k < count, as a polygon document written directly (the
    polygon may be past the lattice bound)."""
    poly = random_nice_polygon(n, seed)
    coords = [c + Fraction(1, 10 ** 490 + k) if k < count else c
              for k, c in enumerate(c for v in poly.vertices for c in (v.x, v.y))]
    return json.dumps({"field": "rational", "vertices": [
        [str(x), str(y)] for x, y in zip(coords[::2], coords[1::2])]})


def test_results_past_the_int_str_limit_are_printed(tmp_path, capsys, within_seconds):
    """random_nice_polygon(5, 1) with 1/(10**490 + k) added to its first two
    coordinates: every scalar is within the text bound and the lattice's
    denominator (981 digits) within its bound, yet the boundedness
    certificate from a point in strip 0's annulus prints a radius past
    Python's 4,300-digit int-to-str limit.  `main` lifts the limit while it
    runs and restores it on return."""
    text = _perturbed_doc(5, 1, 2)
    assert max(map(len, text.split('"'))) <= 1000
    f = tmp_path / "long.json"
    f.write_text(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, "quasi", str(f), "--certify=-1841/740,22879/791")
    assert code == 0
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("argv", [
    ("validate",),
    ("partition",),
    ("classify", "--point", "500,1"),
    ("orbit", "--point", "500,1"),
    ("verify",),
    ("quasi",),
])
def test_lattice_past_its_bound_is_a_json_input_error(argv, tmp_path, capsys):
    """random_nice_polygon(8, 1) with 1/(10**490 + k) added to its k-th
    coordinate: every scalar is within the text bound, but the lattice's
    denominator, their lcm, has 7,832 digits (`verify` took 47 s on it).
    `NicePolygon` refuses a denominator of 10**SCALAR_DIGITS or more, so
    every command exits 2 within 1 s with a JSON error naming the bound."""
    f = tmp_path / "wide.json"
    f.write_text(_perturbed_doc(8, 1, 16))
    t0 = time.monotonic()
    code, out = run(capsys, argv[0], str(f), *argv[1:])
    assert time.monotonic() - t0 < 1
    assert code == 2
    assert "10**1000" in json.loads(out)["error"]


def test_lattice_bound_removed_lets_the_wide_polygon_through(tmp_path, capsys, monkeypatch):
    """Negative control: with `NicePolygon.__init__`'s bound on `den`
    recompiled out, the wide polygon must fail
    `test_lattice_past_its_bound_is_a_json_input_error` on `validate`, its
    cheapest command: the polygon is read, and validate exits 0."""
    source = textwrap.dedent(inspect.getsource(polygon_module.NicePolygon.__init__))
    old = "if den >= 10 ** SCALAR_DIGITS:"
    assert source.count(old) == 1
    namespace = dict(vars(polygon_module))
    exec(source.replace(old, "if False:"), namespace)
    monkeypatch.setattr(polygon_module.NicePolygon, "__init__", namespace["__init__"])
    with pytest.raises(AssertionError):
        test_lattice_past_its_bound_is_a_json_input_error(("validate",), tmp_path, capsys)


def test_help_is_not_a_usage_error(capsys):
    for argv in (("--help",), ("orbit", "--help")):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: outerbilliards")


# a value that starts with '-' and a digit is read as the option's argument,
# as the '=' form always was; the certified point is the quasirational
# pentagon's from the CI step
@pytest.mark.parametrize("argv", [
    ("classify", "TRI", "--point", "-5,3"),
    ("orbit", "TRI", "--point", "-1/2,-7"),
    ("quasi", "PENT", "--certify", "-1690189227/5,12000343371/5"),
])
def test_negative_values_read_as_their_equals_form(argv, tri_file, tmp_path, capsys):
    pent = tmp_path / "pent.json"
    pent.write_text(polygon_to_text(random_nice_polygon(5, 9000)))
    *head, option, value = [{"TRI": tri_file, "PENT": str(pent)}.get(a, a) for a in argv]
    spaced = run(capsys, *head, option, value)
    assert spaced == run(capsys, *head, f"{option}={value}")
    assert spaced[0] == 0 and json.loads(spaced[1])


@pytest.mark.parametrize("argv", [
    ("orbit", "TRI", "--pont", "1,2"),
    ("orbit", "TRI", "--point", "1,2", "--pont", "-1,2"),
    ("orbit", "TRI", "-5,3"),
    ("classify", "TRI", "--point"),
])
def test_unknown_options_and_stray_values_stay_json_input_errors(argv, tri_file, capsys):
    code, out = run(capsys, *[tri_file if a == "TRI" else a for a in argv])
    assert code == 2
    assert json.loads(out)["error"]
