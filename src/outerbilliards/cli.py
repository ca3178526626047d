"""Command-line interface.

Exit codes: 0 success, 1 verification violation, 2 input error, 3 the
requested point is on a wall / inside the polygon (map undefined there).
Every command is reproducible from its argument vector alone.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .dynamics import ORBIT_MAPS, SECTION_SELECTORS, orbit, section
from .errors import AnnulusNotFoundError, MapUndefinedError, ParseError, PolygonError
from .generate import random_nice_polygon
from .geometry import Point, point_of
from .model import BilliardModel
from .polygon import parse_polygon
from .quasirational import boundedness_certificate, quasi_analyze
from .scalars import bounded_int, scalar_from_json, scalar_to_json
from .svg import (
    default_viewport,
    draw_points,
    draw_polygon,
    draw_polyline,
    partition_scene,
    render_scene,
)
from .verify import check_necklace_invariance, negative_controls, run_all

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3


def _load_polygon(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_polygon(fh.read())
    except OSError as exc:
        raise SystemExit(_fail(f"cannot read {path}: {exc}"))
    except (ParseError, PolygonError) as exc:
        raise SystemExit(_fail(f"invalid polygon: {exc}"))


def _fail(message: str) -> int:
    print(json.dumps({"error": message}, sort_keys=True))
    return EXIT_INPUT


def _parse_point(text: str) -> Point:
    try:
        xs, ys = text.split(",")
        return Point(scalar_from_json(xs), scalar_from_json(ys))
    except ValueError as exc:
        raise SystemExit(_fail(f"bad point {text!r}: {exc}"))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(_fail(f"cannot write {path}: {exc}"))


def _emit(doc, path=None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _pt_json(p):  # a Point
    return [scalar_to_json(p.x), scalar_to_json(p.y)]


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    poly = _load_polygon(args.polygon)
    model = BilliardModel(poly)
    pairs = []
    for p in model.system.pairs:
        pairs.append({
            "index": p.index + 1,
            "edge": p.edge_index + 1,
            "width": scalar_to_json(p.width),
            "v": _pt_json(poly.vertices[p.v_index]),
            "w": _pt_json(poly.vertices[p.w_index]),
            "V": _pt_json(point_of(p.V)),
            "special": p.special,
        })
    _emit({
        "schema": "validate/1",
        "valid": True,
        "n": poly.n,
        "reoriented": poly.reoriented,
        "pinwheel_pairs": pairs,
    })
    return EXIT_OK


def cmd_partition(args) -> int:
    poly = _load_polygon(args.polygon)
    model = BilliardModel(poly)
    tiles = []
    partitions = [("forward", model.partition)]
    if args.backward:
        partitions.append(("backward", model.backward_partition))
    for side, part in partitions:
        for t in sorted(part.tiles, key=lambda t: t.label):
            entry = {
                "side": side,
                "label": [t.v_index + 1, t.w_index + 1],
                "translation": _pt_json(point_of(t.translation)),
                "bounded": not t.unbounded,
                "constraints": [
                    {"a": scalar_to_json(h.line.a), "b": scalar_to_json(h.line.b),
                     "c": scalar_to_json(h.line.c), "sense": h.sense.value}
                    for h in t.region.constraints],
            }
            if side == "forward":
                entry["path"] = model.path_of_tile(t).display()
            if not t.unbounded:
                entry["vertices"] = [_pt_json(v) for v in t.region.vertices()]
            tiles.append(entry)
    paths = []
    for p in model.paths.paths:
        paths.append({
            "path": p.display(),
            "involved": [i % poly.n + 1 for i in p.involved],
            "special": [model.system.pair(i).special for i in p.involved],
            "W": {str(i % poly.n + 1): _pt_json(point_of(w))
                  for i, w in sorted(p.steps.items())},
            "endpoints": [_pt_json(point_of(p.first_vertex)), _pt_json(point_of(p.last_vertex))],
        })
    doc = {"schema": "partition/1", "n": poly.n, "tiles": tiles, "paths": paths}
    if args.json or not args.svg:
        _emit(doc, args.json)
    if args.svg:
        scene = partition_scene(model)
        _write(args.svg, render_scene(scene, viewport=default_viewport(model)))
    return EXIT_OK


def cmd_classify(args) -> int:
    poly = _load_polygon(args.polygon)
    model = BilliardModel(poly)
    p = _parse_point(args.point)
    tile = model.partition.classify(poly.homogeneous(p))
    path = model.path_of_tile(tile)
    _emit({
        "schema": "classify/1",
        "label": [tile.v_index + 1, tile.w_index + 1],
        "path": path.display(),
        "translation": _pt_json(point_of(tile.translation)),
        "bounded": not tile.unbounded,
    })
    return EXIT_OK


def cmd_orbit(args) -> int:
    poly = _load_polygon(args.polygon)
    model = BilliardModel(poly)
    p = _parse_point(args.point)
    selector = ORBIT_MAPS[args.map]
    if args.steps < 0:
        return _fail(f"--steps must be >= 0, got {args.steps}")
    try:
        escape = scalar_from_json(args.escape) if args.escape else None
    except ValueError as exc:
        return _fail(f"bad --escape {args.escape!r}: {exc}")
    if escape is not None and escape.as_integer_ratio()[0] < 0:  # the numerator's sign
        return _fail(f"--escape must be >= 0, got {args.escape}")
    start = section(model, p) if selector in SECTION_SELECTORS else p
    rec = orbit(model, start, selector, args.steps, escape)
    events = []
    for e in rec.events:
        entry = {"step": e.step, "point": _pt_json(e.point), "event": e.tag}
        if e.index is not None:
            entry["index"] = e.index + 1
        if e.label is not None:
            entry["label"] = [e.label[0] + 1, e.label[1] + 1]
        events.append(entry)
    if args.svg:  # before the events, so a bad path leaves one JSON document on stdout
        pts = rec.points()
        scene = [draw_polygon(model.polygon.vertices),
                 draw_polyline(pts), draw_points([pts[0], pts[-1]])]
        _write(args.svg, render_scene(scene))
    _emit({"schema": "orbit/1", "map": args.map, "events": events}, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples is not None and args.samples < 1:
        return _fail(f"--samples must be >= 1, got {args.samples}")
    if args.random:
        try:
            spec = dict(kv.split("=") for kv in args.random.split())
            count, nsides = bounded_int(spec["count"]), bounded_int(spec["n"])
        except (ValueError, KeyError):
            return _fail(f"bad --random spec {args.random!r}; want 'n=K count=M'")
        if count < 1:
            return _fail(f"bad --random spec {args.random!r}: count must be >= 1")
        try:
            polys = [random_nice_polygon(nsides, args.seed + i) for i in range(count)]
        except ValueError as exc:
            return _fail(f"bad --random spec {args.random!r}: {exc}")
    else:
        if not args.polygon:
            return _fail("verify needs a polygon file or --random")
        polys = [_load_polygon(args.polygon)]
    if args.json:
        _write(args.json, "")  # an unwritable report path fails before the checks run
    all_reports = []
    status = EXIT_OK
    for i, poly in enumerate(polys):
        reports = run_all(poly, args.profile, seed=args.seed, samples=args.samples)
        if args.negative_controls:
            reports.extend(negative_controls(poly, seed=args.seed))
        for rep in reports:
            print(f"[{i}] {rep.summary_line()}")
            is_control = rep.check.startswith("negative-control")
            if is_control:
                if rep.passed and rep.attempted == 0:
                    print(f"[{i}] (control not applicable on this polygon)")
                elif rep.passed:
                    status = EXIT_VIOLATION
                    print(f"[{i}] !! negative control did not trip")
            elif not rep.passed:
                status = EXIT_VIOLATION
        all_reports.append({"polygon": i, "reports": [r.to_json() for r in reports]})
    if args.json:
        _emit({"schema": "verify/1", "profile": args.profile,
               "seed": args.seed, "runs": all_reports}, args.json)
    print("RESULT:", "PASS" if status == EXIT_OK else "FAIL")
    return status


def cmd_quasi(args) -> int:
    if args.m < 1:
        return _fail(f"--m must be >= 1, got {args.m}")
    poly = _load_polygon(args.polygon)
    model = BilliardModel(poly)
    quasi = quasi_analyze(model.system)
    doc = {
        "schema": "quasi/1",
        "areas": [scalar_to_json(a) for a in quasi.areas],
        "quasirational": quasi.quasirational,
    }
    status = EXIT_OK
    if quasi.quasirational:
        doc["D"] = scalar_to_json(quasi.D)
        doc["D_j"] = list(quasi.D_int)
        rep = check_necklace_invariance(model, m=args.m, samples=24, seed=args.seed)
        doc["invariance"] = rep.to_json()
        if not rep.passed:
            status = EXIT_VIOLATION
        if args.certify:
            p = _parse_point(args.certify)
            try:
                bounded, radius = boundedness_certificate(
                    model.system, quasi, p, args.m)
                doc["certificate"] = {"bounded": bounded,
                                      "radius_l1": scalar_to_json(radius)}
            except AnnulusNotFoundError as exc:
                doc["certificate"] = {"error": str(exc)}
                status = EXIT_UNDEFINED
    _emit(doc)
    return status


def _value(text: str) -> str:
    """An option's value: an empty one is a bad value, not an absent option."""
    if not text:
        raise argparse.ArgumentTypeError("empty value")
    return text


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: a JSON error on stdout, exit code 2.
    An argument that starts with '-' and a digit is a value (`--point -5,3`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise SystemExit(_fail(f"{self.prog}: {message}"))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="outerbilliards",
        description="Exact outer billiards, pinwheel dynamics, and verification")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a polygon file")
    p.add_argument("polygon")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("partition", help="emit the forward partition")
    p.add_argument("polygon")
    p.add_argument("--svg", type=_value)
    p.add_argument("--json", type=_value)
    p.add_argument("--backward", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("classify", help="classify a point into its tile")
    p.add_argument("polygon")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbit", help="iterate a map with an event log")
    p.add_argument("polygon")
    p.add_argument("--point", required=True)
    p.add_argument("--map", default="psi",
                   choices=list(ORBIT_MAPS))
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--escape", type=_value)
    p.add_argument("--svg", type=_value)
    p.add_argument("--json", type=_value)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("polygon", nargs="?")
    p.add_argument("--random", type=_value, help="'n=K count=M' generated polygons")
    p.add_argument("--profile", default="quick", choices=["quick", "full"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, help="override per-check sample counts "
                   "(pin1-pin2-move keeps its 6 quick / 20 full samples per tile)")
    p.add_argument("--json", type=_value)
    p.add_argument("--negative-controls", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quasi", help="quasirationality and necklace checks")
    p.add_argument("polygon")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certify", type=_value, help="point x,y to certify bounded")
    p.set_defaults(func=cmd_quasi)
    return ap


def main(argv=None) -> int:
    # argv's int options are read under Python's int-to-str digit limit; a
    # command bounds every scalar and int it reads (`SCALAR_DIGITS`) before it
    # parses them, but exact results can outgrow the limit: lift it for the run
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = build_parser().parse_args(argv)
        if limit is not None:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except MapUndefinedError as exc:
        _emit({"schema": f"{args.command}/1", "error": str(exc)})
        return EXIT_UNDEFINED
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
