"""Command-line front end: cone ingestion, reports, traces, SVG rendering.

Input files are JSON documents ``{"lattice_rank": r, "cones": [{"generators":
[[...], ...]}, ...]}`` with integer entries only; rationals in reports are
emitted as ``{"num": ..., "den": ...}`` objects.  Exit status 2 flags a parse
problem, 1 a domain error from the core (the message names the offending
cone), 0 success.  A flag that the command does not read, or a flag value
out of range, is refused with exit status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .classify import classify
from .cones import Cone, dual_cone, make_cone
from .hilbert import _binomial_relations, hilbert_basis
from .lattice import Covector, LatticeVector
from .resolve2d import minimal_resolution
from .resolve3d import PolygonComplex, canonical_modification, completion, resolve, resolve_piece

# ``--completion all`` refuses cones with more completions than this
MAX_LISTED_COMPLETIONS = 1024
# ``render`` and ``--svg`` refuse a polygon wider or taller than this many lattice units
MAX_DRAWN_EXTENT = 4096

# optional flags read by one command only: flag -> (argparse destination, command)
_FLAG_READERS = {
    "--svg": ("svgfile", "resolve3d"),
    "--completion": ("completion", "resolve3d"),
    "--degree-bound": ("degree_bound", "hilbert"),
}


class ParseError(ValueError):
    pass


def parse_job(text: str) -> dict:
    """Validated job document; unknown fields are rejected."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    unknown = set(data) - {"lattice_rank", "cones"}
    if unknown:
        raise ParseError(f"unknown fields: {sorted(unknown)}")
    rank = data.get("lattice_rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ParseError("lattice_rank must be a positive integer")
    cones = data.get("cones")
    if not isinstance(cones, list) or not cones:
        raise ParseError("cones must be a non-empty list")
    for entry in cones:
        if not isinstance(entry, dict) or set(entry) != {"generators"}:
            raise ParseError("each cone must be an object with exactly a 'generators' field")
        gens = entry["generators"]
        if not isinstance(gens, list) or not gens:
            raise ParseError("generators must be a non-empty list")
        for g in gens:
            if (
                not isinstance(g, list)
                or len(g) != rank
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in g)
            ):
                raise ParseError(f"generator {g} must be a list of {rank} integers")
    return {"lattice_rank": rank, "cones": [{"generators": [list(g) for g in e["generators"]]} for e in cones]}


def serialize(obj) -> str:
    """Canonical JSON serialization (stable across runs and platforms): the
    bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, for
    documents of dicts with string keys, lists, tuples, ints, booleans, None
    and strings.  Any other value, a float included, raises ``TypeError``."""
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(o, out: list[str], nl: str) -> None:
    """Append ``o`` to ``out`` as indented JSON; ``nl`` is a newline followed
    by the indentation of the level that holds ``o``."""
    t = type(o)
    if t is str:
        out.append(encode_basestring_ascii(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in o):
            # coordinate lists, most of the bytes of every report
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
            return
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _write(x, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(o[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _cones_of(job: dict) -> list[Cone]:
    return [
        make_cone([LatticeVector(tuple(g)) for g in entry["generators"]])
        for entry in job["cones"]
    ]


def _frac(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def _covector(m: Covector) -> list[dict]:
    return [_frac(c) for c in m.coords]


def _report_json(c: Cone) -> dict:
    r = classify(c)
    return {
        "generators": [list(g.coords) for g in c.generators],
        "smooth": r.smooth,
        "q_factorial": r.q_factorial,
        "q_gorenstein": (
            None
            if r.q_gorenstein is None
            else {"m_sigma": _covector(r.q_gorenstein[0]), "index": r.q_gorenstein[1]}
        ),
        "gorenstein": r.gorenstein,
        "terminal": r.terminal,
        "canonical": r.canonical,
        "log_terminal": r.log_terminal,
        "lci": r.lci,
        "rational": r.rational,
        "embedding_dimension": r.embedding_dim,
    }


def _cmd_classify(cones, args) -> str:
    return serialize({"reports": [_report_json(c) for c in cones]})


def _cmd_hilbert(cones, args) -> str:
    results = []
    for c in cones:
        entry = {
            "generators": [list(g.coords) for g in c.generators],
            "hilbert_basis": [list(m.coords) for m in hilbert_basis(c).members],
        }
        if c.is_full_dimensional:
            # one dual Hilbert basis for the embedding dimension and the relations
            dual_basis = hilbert_basis(dual_cone(c)).members
            entry["embedding_dimension"] = len(dual_basis)
            if args.degree_bound is not None:
                entry["relations"] = [
                    {"left": list(r.left), "right": list(r.right)}
                    for r in _binomial_relations(dual_basis, c.lattice_rank, args.degree_bound)
                ]
        else:
            entry["embedding_dimension"] = None
        results.append(entry)
    return serialize({"results": results})


def _cmd_resolve2d(cones, args) -> str:
    results = []
    for c in cones:
        fan, exceptional = minimal_resolution(c)
        results.append(
            {
                "generators": [list(g.coords) for g in c.generators],
                "rays": [list(r.coords) for r in fan.rays()],
                "maximal_cones": [
                    [list(g.coords) for g in mc.generators] for mc in fan.maximal_cones
                ],
                "exceptional": [
                    {"ray": list(u.coords), "self_intersection": b}
                    for u, b in exceptional
                ],
            }
        )
    return serialize({"results": results})


def _trace_json(trace) -> list[dict]:
    steps = []
    for s in trace.steps:
        steps.append(
            {
                "phase": s.phase,
                "piece": s.piece,
                "centers": [list(map(list, cell.vertices)) for cell in s.centers],
                "new_rays": [list(r.coords) for r in s.new_rays],
                "discrepancies": (
                    None
                    if s.discrepancy is None
                    else [
                        {"ray": list(v.coords), "a": _frac(a)}
                        for v, a in s.discrepancy.entries
                    ]
                ),
                "census_after": s.census_after,
            }
        )
    return steps


def _cmd_resolve3d(cones, args) -> str:
    if args.svgfile and len(cones) != 1:
        raise ValueError("--svg expects exactly one cone in the input file")
    results = []
    for c in cones:
        fan, trace = resolve(c)
        entry = {
            "generators": [list(g.coords) for g in c.generators],
            "final_rays": [list(r.coords) for r in fan.rays()],
            "maximal_cones": [
                [list(g.coords) for g in mc.generators] for mc in fan.maximal_cones
            ],
            "trace": _trace_json(trace),
            "covers": [
                {
                    "piece": i,
                    "index": cert.index,
                    "sublattice_basis_columns": [list(col) for col in cert.sublattice_basis.transpose().rows],
                }
                for i, cert in trace.covers
            ],
        }
        if args.completion is not None:
            # resolve() built completion 0 of every piece but a basic input cone
            first = trace.first_completions[0] if trace.first_completions else None
            entry["completions"] = _completions_json(_only_piece(trace.pieces), args.completion, first)
        results.append(entry)
    if args.svgfile:
        svg = _draw(cones[0], _only_piece(trace.pieces)[0], args.scale)
        with open(args.svgfile, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return serialize({"results": results})


def _only_piece(pieces):
    """The one canonical piece of a cone; rendering and completions need one."""
    if len(pieces) != 1:
        raise ValueError(
            "rendering and completion listing support one-piece cones "
            f"(got {len(pieces)} canonical pieces)"
        )
    return pieces[0]


def _completions_json(piece, which: str, first) -> list[dict]:
    """The selected completions of a resolved piece, in the input lattice;
    ``first`` is its completion 0 when already built, else ``None``."""
    pc, _frame, _rounds, _cert = piece
    p = len(pc.parallelograms)
    count = 2**p
    if which == "all":
        if count > MAX_LISTED_COMPLETIONS:
            raise ValueError(
                f"--completion all: 2^{p} completions ({p} unit parallelograms), more than the "
                f"{MAX_LISTED_COMPLETIONS} that are listed; select one by its index"
            )
        indices = range(count)
    else:
        # ASCII decimal digits only: int() also reads "0_1", " 1", "+1" and non-ASCII digits
        index = int(which) if which.isascii() and which.isdigit() else -1
        if not 0 <= index < count:
            raise ValueError(
                f"--completion {which}: expected 'all' or an index below the "
                f"2^{p} completions ({p} unit parallelograms)"
            )
        indices = [index]

    # every completion has the cell vertices as its rays, which the piece
    # keeps mapped into the input lattice: list each, with its certificate key, once
    ambient = {lift.coords: list(image.coords) for lift, image in pc.rays.values()}
    keys = {r: str(v) for r, v in ambient.items()}
    rays = sorted(ambient.values())

    def entry(fan, psi) -> dict:
        return {
            "rays": rays,
            "maximal_cones": sorted(
                sorted(ambient[g.coords] for g in mc.generators) for mc in fan.maximal_cones
            ),
            "height_certificate": {keys[r]: v for r, v in psi.ray_values.items()},
        }

    # each completion becomes its entry as soon as it is built, so one fan is held at a time
    built = (first if i == 0 and first else completion(pc, i) for i in indices)
    return [entry(fan, psi) for fan, psi in built]


# ---------------------------------------------------------------------------
# SVG rendering of a polygon complex
# ---------------------------------------------------------------------------


def render_svg(pc: PolygonComplex, scale: int = 40) -> str:
    """Draw the height-one polygon complex: lattice dots, cells, shaded
    ordinary double points with their box diagonals dashed.  A polygon wider
    or taller than ``MAX_DRAWN_EXTENT`` is refused before any point is listed."""
    extent = max(max(axis) - min(axis) for axis in zip(*pc.polygon.vertices))
    if extent > MAX_DRAWN_EXTENT:
        raise ValueError(
            f"the height-one polygon spans {extent} lattice units, "
            f"more than the {MAX_DRAWN_EXTENT} that are drawn"
        )
    pts = pc.polygon.lattice_points()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    pad = 1
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    w = (x1 - x0) * scale
    h = (y1 - y0) * scale

    def xy(p):
        return ((p[0] - x0) * scale, (y1 - p[1]) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for cell, tag in zip(pc.cells, pc.tags()):
        path = " ".join(f"{x},{y}" for x, y in map(xy, cell.vertices))
        fill = "#ffe08a" if tag["unit_parallelogram"] else "none"
        parts.append(
            f'<polygon points="{path}" fill="{fill}" stroke="#555" stroke-width="1"/>'
        )
        if tag["unit_parallelogram"]:
            a, _, c2, _ = cell.vertices
            (xa, ya), (xc, yc) = xy(a), xy(c2)
            parts.append(
                f'<line x1="{xa}" y1="{ya}" x2="{xc}" y2="{yc}" '
                'stroke="#aa4400" stroke-width="1" stroke-dasharray="4 3"/>'
            )
    boundary = " ".join(f"{x},{y}" for x, y in map(xy, pc.polygon.vertices))
    parts.append(
        f'<polygon points="{boundary}" fill="none" stroke="black" stroke-width="2"/>'
    )
    vertex_set = {p for c in pc.cells for p in c.vertices}
    for p in pts:
        x, y = xy(p)
        r = 3 if p in vertex_set else 2
        color = "#cc0000" if p in vertex_set else "#666"
        parts.append(f'<circle cx="{x}" cy="{y}" r="{r}" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 4}" y="{y - 4}" font-size="9" fill="#333">'
            f"{p[0]},{p[1]}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_render(cones, args) -> str:
    if len(cones) != 1:
        raise ValueError("render expects exactly one cone in the input file")
    piece = _only_piece(canonical_modification(cones[0]).maximal_cones)
    return _draw(cones[0], resolve_piece(piece)[0], args.scale)


def _draw(c: Cone, pc: PolygonComplex, scale: int) -> str:
    """``render_svg`` of the one piece of the input cone ``c``; a refusal names ``c``."""
    try:
        return render_svg(pc, scale=scale)
    except ValueError as e:
        raise ValueError(f"cannot draw {c}: {e}") from None


# each command's handler returns the text written to --out
_COMMANDS = {
    "classify": _cmd_classify,
    "hilbert": _cmd_hilbert,
    "resolve2d": _cmd_resolve2d,
    "resolve3d": _cmd_resolve3d,
    "render": _cmd_render,
}


def _refusal(args) -> str | None:
    """Why the command line is refused, naming the flag and the command."""
    for flag, (dest, reader) in _FLAG_READERS.items():
        if getattr(args, dest) is not None and args.command != reader:
            return f"{args.command} does not take {flag} (only {reader} does)"
    if args.scale < 1:
        return f"{args.command}: --scale must be at least 1 (got {args.scale})"
    if args.degree_bound is not None and args.degree_bound < 0:
        return f"{args.command}: --degree-bound must be at least 0 (got {args.degree_bound})"
    return None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and reused:
    parsing keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="toresolve",
        description="classify and resolve 2- and 3-dimensional toric singularities",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--in", dest="infile", required=True, help="input JSON file")
    parser.add_argument("--out", dest="outfile", required=True, help="output file")
    parser.add_argument("--svg", dest="svgfile", help="resolve3d: also write an SVG rendering")
    parser.add_argument("--completion", help="resolve3d: list completion INDEX, or 'all'")
    parser.add_argument(
        "--degree-bound", dest="degree_bound", type=int, help="hilbert: relations up to this degree"
    )
    parser.add_argument("--scale", type=int, default=40, help="SVG pixels per lattice unit")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    refusal = _refusal(args)
    if refusal:
        print(f"toresolve: {refusal}", file=sys.stderr)
        return 2

    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            job = parse_job(fh.read())
    except (OSError, ParseError) as e:
        print(f"toresolve: parse failure: {e}", file=sys.stderr)
        return 2

    try:
        text = _COMMANDS[args.command](_cones_of(job), args)
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    except ValueError as e:
        print(f"toresolve: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
