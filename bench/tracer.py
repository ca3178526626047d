"""Span tracer for the traced benchmark run.

The wrappers live here, outside the package: `Tracer.install` rebinds each
traced public function (or method) in every module that holds it, so calls
from inside the package are traced too, and `uninstall` puts the originals
back.  Each call records a span (name, parent span, op id, start, end); a
span's self time is its duration minus the time its child spans cover.
Spans stay in memory until the run ends.  The hottest scalar entry points
are only counted, since a span each would multiply their cost.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from typing import Dict, List, Tuple

# span name -> (module, attribute path) of the traced callable
SPANS: Dict[str, Tuple[str, str]] = {
    "billiards.tangent_vertex": ("billiards", "tangent_vertex"),
    "billiards.square_map": ("billiards", "square_map"),
    "billiards.build_partition": ("billiards", "build_partition"),
    "polygon.point_location": ("polygon", "NicePolygon.point_location"),
    "geometry.region_build": ("geometry", "ConvexRegion.from_halfplanes"),
    "geometry.polygon_region": ("geometry", "polygon_region"),
    "geometry.contains": ("geometry", "ConvexRegion.contains"),
    "strips.build": ("strips", "build_pinwheel_system"),
    "strips.strip_map": ("strips", "strip_map"),
    "strips.strip_jump": ("strips", "strip_jump"),
    "paths.enumerate": ("paths", "enumerate_paths"),
    "paths.link_partition": ("paths", "link_partition"),
    "dynamics.orbit": ("dynamics", "orbit"),
    "dynamics.pinwheel_step": ("dynamics", "pinwheel_step"),
    "dynamics.pinwheel_theorem_step": ("dynamics", "pinwheel_theorem_step"),
    "dynamics.strip_system_return": ("dynamics", "strip_system_return"),
    "quasirational.necklace_contains": ("quasirational", "NecklaceSpec.contains"),
    "quasirational.in_trapped_extent": ("quasirational", "in_trapped_extent"),
    "quasirational.certificate": ("quasirational", "boundedness_certificate"),
}

# verify.CHECKS id -> check function; `install` insists the two agree
VERIFY_CHECKS: Dict[str, str] = {
    "structure1": "check_structure1",
    "pinwheel-theorem": "check_pinwheel_theorem",
    "far-field-dichotomy": "check_far_field",
    "structure3": "check_structure3",
    "pin1-pin2-move": "check_pin1_pin2_move",
    "apex": "check_apex",
    "exit-reversal-conjugate": "check_exit_reversal_conjugate",
    "necklace-invariance": "check_necklace_invariance",
}

# counted, not spanned
QUAD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__neg__", "_inverse", "sign", "_cmp")


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names: List[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("q")
        self.op: array = array("q")
        self.start: array = array("q")
        self.end: array = array("q")
        self.stack: List[int] = [-1]
        self.op_id = -1
        self.counts: Dict[str, int] = {"scalars.sign.calls": 0,
                                       "scalars.quad_ops": 0,
                                       "geometry.region_build.constraints_in": 0,
                                       "geometry.region_build.constraints_kept": 0}
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span called `name`."""
        nid = self._name_id(name)
        name_of, parent, op, start, end = (self.name_of, self.parent, self.op,
                                           self.start, self.end)
        stack, clock = self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def run_span(self, name: str, fn, *args):
        return self.span(name, fn)(*args)

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _region_build(self, fn):
        counts = self.counts

        def build(halfplanes):
            hps = list(halfplanes)
            out = fn(hps)
            counts["geometry.region_build.constraints_in"] += len(hps)
            counts["geometry.region_build.constraints_kept"] += len(out.constraints)
            return out

        return build

    # -- installing --------------------------------------------------------

    def _rebind(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self, extra_modules=()) -> None:
        import outerbilliards
        from outerbilliards import scalars, verify

        mods = [m for k, m in sys.modules.items()
                if k == "outerbilliards" or k.startswith("outerbilliards.")]
        mods += list(extra_modules)
        if set(VERIFY_CHECKS) != set(verify.CHECKS):
            raise RuntimeError(f"verify.CHECKS changed: {verify.CHECKS}")
        targets = dict(SPANS)
        targets.update({f"verify.{c}": ("verify", f)
                        for c, f in VERIFY_CHECKS.items()})
        for name, (module, path) in targets.items():
            owner = getattr(outerbilliards, module)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if name == "geometry.region_build":
                fn = self._region_build(fn)
            wrapped = self.span(name, fn)
            if cls_path:
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapped)
                        if isinstance(raw, staticmethod) else wrapped)
            else:
                self._rebind(mods, raw, wrapped)
        self._rebind(mods, scalars.sign, self._counted("scalars.sign.calls",
                                                       scalars.sign))
        for attr in QUAD_OPS:
            raw = vars(scalars.QuadExt)[attr]
            self._undo.append((scalars.QuadExt, attr, raw))
            setattr(scalars.QuadExt, attr, self._counted("scalars.quad_ops", raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s}, self time from the span tree."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i] / 1e9
            row["self_s"] += (dur[i] - child[i]) / 1e9
        return out

    def write(self, path: str) -> None:
        """All spans as gzip'd JSON: a name table and one column per field."""
        doc = {"schema": "bench-spans/1", "names": self.names,
               "clock": "perf_counter_ns",
               "columns": {"name": self.name_of.tolist(),
                           "parent": self.parent.tolist(),
                           "op": self.op.tolist(),
                           "start_ns": self.start.tolist(),
                           "end_ns": self.end.tolist()}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
