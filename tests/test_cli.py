"""Command-line interface: outputs, exit codes, reproducibility."""

import hashlib
import json

import pytest

from outerbilliards.cli import main
from outerbilliards.generate import random_nice_polygon
from outerbilliards.polygon import polygon_to_text

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


def test_classify_wall_point_distinct_exit_code(tri_file, capsys):
    code, out = run(capsys, "classify", tri_file, "--point", "6,0")
    assert code == 3
    assert "error" in json.loads(out)


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


def test_orbit_psi_events(tri_file, capsys):
    code, out = run(capsys, "orbit", tri_file, "--point", "8,-2",
                    "--map", "psi", "--steps", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["events"][1]["point"] == ["10", "4"]
    assert doc["events"][1]["event"] == "translated"


def test_orbit_wall_point(tri_file, capsys):
    code, out = run(capsys, "orbit", tri_file, "--point", "6,0",
                    "--map", "psistar", "--steps", "3")
    assert code == 3


def test_orbit_svg_trace(tri_file, tmp_path, capsys):
    svg = tmp_path / "orbit.svg"
    code, _ = run(capsys, "orbit", tri_file, "--point", "8,-2",
                  "--map", "psi", "--steps", "8", "--svg", str(svg))
    assert code == 0
    assert "<polyline" in svg.read_text()


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


# a triangle with the vertex (4, 1/0), in plain form and as a {"a","b","d"} scalar
ZERO_DENOMINATOR_DOCS = {
    "ZERO_DEN": '{"field": "rational", "vertices": [["0","0"],["1","3"],["4","1/0"]]}',
    "ZERO_DEN_QUAD": ('{"field": {"quad": 5}, "vertices": [["0","0"],["1","3"],'
                      '["4",{"a":"1/0","b":"1","d":5}]]}'),
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
])
def test_bad_argument_is_json_input_error(argv, tri_file, tmp_path, capsys):
    files = {"TRI": tri_file}
    for name, doc in ZERO_DENOMINATOR_DOCS.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(doc)
    code, out = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2
    assert json.loads(out)["error"]
