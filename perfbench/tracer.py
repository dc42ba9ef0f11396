"""Spans around calls into toresolve, installed from outside the package.

A wrapper replaces each traced function wherever it is bound: ``from .cones
import extreme_rays`` copies the function object into other modules, so every
``toresolve.*`` module attribute that is the same object is patched, and
methods and properties are patched on their class.  ``uninstall`` restores
every binding.

Spans (name, start, end, parent span, op) stay in memory; a layer's self time
is its spans' durations minus the time covered by their child spans.  The
tiny hot predicates are only counted.  Nothing is recorded outside an op, so
the benchmark's own checks do not show up in the layers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter


def _box(scan_ranges) -> int:
    size = 1
    for lo, hi in scan_ranges:
        size *= hi - lo + 1
    return size


def _polygon_scan(args, result):
    # LatticePolytope.lattice_points scans its bounding box only in dimension 2,
    # which for planar input is exactly when the hull kept 3 or more vertices.
    verts = args[0].vertices
    if len(verts) < 3:
        return 0, 0
    return _box((min(v[i] for v in verts), max(v[i] for v in verts)) for i in range(2)), len(result)


def _slab_scan(args, result):
    gens = [g.coords for g in args[0].generators]
    ranges = [(min(0, *(g[i] for g in gens)), max(0, *(g[i] for g in gens))) for i in range(len(gens[0]))]
    return _box(ranges), len(result)


def _coupled(args, result):
    # Inequalities share a variable: ROADMAP item 4 asks whether this ever happens.
    seen, coupled = set(), False
    for coeffs, _rhs in args[0]:
        variables = {v for v, c in coeffs.items() if c}
        coupled = coupled or bool(seen & variables)
        seen |= variables
    return (int(coupled),)


SPAN, COUNT = "span", "count"

# (metric prefix, module, attribute path, kind, (stat names, per-call values from (args, result)))
TARGETS = [
    ("lattice.smith_normal_form", "toresolve.lattice", "smith_normal_form", SPAN, None),
    ("lattice.hermite_normal_form", "toresolve.lattice", "hermite_normal_form", SPAN, None),
    ("lattice.rational_solve", "toresolve.lattice", "rational_solve", SPAN, None),
    ("lattice.integer_kernel", "toresolve.lattice", "integer_kernel", COUNT, None),
    ("cones.extreme_rays", "toresolve.cones", "extreme_rays", SPAN,
     (("rays_out",), lambda a, r: (len(r[0]),))),
    ("cones.make_cone", "toresolve.cones", "make_cone", SPAN, None),
    ("cones.dual_cone", "toresolve.cones", "dual_cone", COUNT, None),
    ("cones.rank", "toresolve.cones", "_rank", COUNT, None),
    ("cones.Cone.contains", "toresolve.cones", "Cone.contains", COUNT, None),
    ("hilbert.hilbert_basis", "toresolve.hilbert", "hilbert_basis", SPAN,
     (("members_out",), lambda a, r: (len(r.members),))),
    ("hilbert.floor_facets", "toresolve.hilbert", "floor_facets", SPAN, None),
    ("classify.LatticePolytope.lattice_points", "toresolve.classify",
     "LatticePolytope.lattice_points", SPAN, (("box_points", "hits"), _polygon_scan)),
    ("classify.LatticePolytope.dimension", "toresolve.classify", "LatticePolytope.dimension", COUNT, None),
    ("classify.grading_slab", "toresolve.classify", "_grading_slab_points", SPAN,
     (("box_points", "hits"), _slab_scan)),
    ("classify.is_nakajima", "toresolve.classify", "is_nakajima", SPAN, None),
    ("classify.index_one_cover", "toresolve.classify", "index_one_cover", SPAN, None),
    ("classify.classify", "toresolve.classify", "classify", SPAN, None),
    ("divisors.is_strictly_upper_convex", "toresolve.divisors", "is_strictly_upper_convex", SPAN, None),
    ("resolve3d.resolve", "toresolve.resolve3d", "resolve", SPAN, None),
    ("resolve3d.canonical_modification", "toresolve.resolve3d", "canonical_modification", SPAN,
     (("pieces_out",), lambda a, r: (len(r.maximal_cones),))),
    ("resolve3d.fixed_point_phase", "toresolve.resolve3d", "_fixed_point_phase", SPAN,
     (("rounds",), lambda a, r: (len(r[1]),))),
    ("resolve3d.curve_phase", "toresolve.resolve3d", "_curve_phase", SPAN,
     (("rounds",), lambda a, r: (len(r[1]),))),
    ("resolve3d.order_function_subdivision", "toresolve.resolve3d", "_order_function_subdivision", SPAN, None),
    ("resolve3d.envelope_subdivision", "toresolve.resolve3d", "_envelope_subdivision", SPAN, None),
    ("resolve3d.PolygonComplex.tags", "toresolve.resolve3d", "PolygonComplex.tags", SPAN, None),
    ("resolve3d.completion_for_bits", "toresolve.resolve3d", "_completion_for_bits", SPAN, None),
    ("resolve3d.composite_heights", "toresolve.resolve3d", "_composite_heights", SPAN, None),
    ("resolve3d.fourier_motzkin", "toresolve.resolve3d", "_fourier_motzkin", SPAN,
     (("coupled_calls",), _coupled)),
    ("cli.main", "toresolve.cli", "main", SPAN, None),
    ("cli.parse_job", "toresolve.cli", "parse_job", SPAN, None),
    ("cli.serialize", "toresolve.cli", "serialize", SPAN, (("bytes_out",), lambda a, r: (len(r),))),
    ("cli.completions_json", "toresolve.cli", "_completions_json", SPAN,
     (("written",), lambda a, r: (len(r),))),
]

# completion_for_bits calls made on behalf of the CLI's completion listing
_COMPLETIONS = "cli.completions_json"
_ATTEMPT = "resolve3d.completion_for_bits"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index, op, outermost)
        self.stack: list[int] = []
        self.active: Counter = Counter()  # name id -> open spans
        self.counts: Counter = Counter()  # "<name>.<stat>" -> additive value
        self.op = None
        self.missing: list[str] = []
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, stats):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, active, counts = self.spans, self.stack, self.active, self.counts
        stat_keys = [f"{name}.{stat}" for stat in stats[0]] if stats else []
        completions_id = self.names.index(_COMPLETIONS) if name == _ATTEMPT and _COMPLETIONS in self.names else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = not active[nid]
            active[nid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[nid] -= 1
                spans[idx] = (nid, start, end, parent, op, outer)
            if stats is not None:
                for key, value in zip(stat_keys, stats[1](args, result)):
                    counts[key] += value
            if completions_id is not None and active[completions_id]:
                counts[f"{_COMPLETIONS}.attempts"] += 1
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts, tracer, key = self.counts, self, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        # cli.completions_json first, so the completion_for_bits wrapper can see it
        order = sorted(TARGETS, key=lambda t: t[0] != _COMPLETIONS)
        for name, module, path, kind, stats in order:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                # renamed or removed since the benchmark was written: report zeros
                self.missing.append(name)
                continue
            make = (lambda f: self._span(name, f, stats)) if kind == SPAN else (lambda f: self._count(name, f))
            if isinstance(raw, property):
                self._set(owner, attr, property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__))
            elif outer:
                self._set(owner, attr, make(raw))
            else:
                wrapper = make(raw)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "toresolve" or mod_name.startswith("toresolve."):
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, self_s, total_s, the per-call stats and the waste ratios."""
        out: dict[str, float] = {}
        for name, _module, _path, kind, stats in TARGETS:
            out[f"{name}.calls"] = 0
            if kind == SPAN:
                out[f"{name}.self_s"] = 0.0
                out[f"{name}.total_s"] = 0.0
            for stat in stats[0] if stats else ():
                out[f"{name}.{stat}"] = 0
        child = [0.0] * len(self.spans)
        for _nid, start, end, parent, _op, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (nid, start, end, _parent, _op, outer), covered in zip(self.spans, child):
            name = self.names[nid]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - covered
            if outer:
                out[f"{name}.total_s"] += end - start
        out.update(self.counts)
        for scan in ("classify.LatticePolytope.lattice_points", "classify.grading_slab"):
            box = out[f"{scan}.box_points"]
            out[f"{scan}.hit_ratio"] = out[f"{scan}.hits"] / box if box else 0.0
        attempts = self.counts[f"{_COMPLETIONS}.attempts"]
        out[f"{_COMPLETIONS}.useful_ratio"] = out[f"{_COMPLETIONS}.written"] / attempts if attempts else 0.0
        return out

    def root_times(self) -> Counter:
        """Per op, the wall time that its outermost spans cover."""
        covered: Counter = Counter()
        for _nid, start, end, parent, op, _outer in self.spans:
            if parent < 0:
                covered[op] += end - start
        return covered

    def write(self, path: str) -> None:
        """All spans as JSON: names, then [name, start, end, parent, op] rows."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 7), round(e - t0, 7), p, o] for n, s, e, p, o, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
