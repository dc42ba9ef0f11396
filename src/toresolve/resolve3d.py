"""Crepant, projective desingularization of rank-3 toric singularities.

The pipeline: refine over the hull floor until singularities are canonical,
pass to the grading sublattice where the index exceeds one, flatten each
Gorenstein canonical piece to a lattice polygon at height one, then blow up
fixed points (cells with interior lattice points) and singular curves (cell
edges with interior lattice points) until only ordinary double points are
left, and finally fill the remaining unit parallelograms with box diagonals.
Every ray produced after the canonical step lies at height one, so every
step is crepant by construction, and each completed triangulation ships with
an exact integral height function certifying projectivity.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from operator import attrgetter, itemgetter

from .classify import (
    CoverCertificate,
    LatticePolytope,
    convex_hull_2d,
    gorenstein_data,
    height_one_polytope,
    index_one_cover,
)
from .cones import (
    Cone, ConeError, Fan, _mapped_cones, cone_over_polygon, is_basic, make_fan, simplicial_cone
)
from .divisors import DiscrepancyReport, SupportFunction, is_strictly_upper_convex
from .hilbert import floor_facets
from .lattice import Covector, IntMatrix, LatticeVector, _made


class Resolve3dError(ValueError):
    """Domain error raised by the 3D resolution pipeline."""


Point = tuple[int, int]
Triangle = tuple[Point, Point, Point]
Dual = tuple[tuple[int, int, int], ...]
Wall = tuple[Point, Point, Point, Point]
WallTerms = tuple[tuple[Point, int], ...]


# ---------------------------------------------------------------------------
# the state object: a polygon with its current subdivision
# ---------------------------------------------------------------------------


def _tag_sums(cells) -> tuple[int, int, int, int]:
    """Over the cells' tags: the cells with interior points, the interior
    points, the basic cells and the unit parallelograms."""
    tags = [c.tag for c in cells]
    return (
        sum(1 for t in tags if t["interior_points"]),
        sum(t["interior_points"] for t in tags),
        sum(1 for t in tags if t["basic"]),
        sum(1 for t in tags if t["unit_parallelogram"]),
    )


def _census(polygon: LatticePolytope, cells, sums: tuple[int, int, int, int], vertices: int) -> dict:
    """The census of the cells, with ``sums`` their ``_tag_sums`` and
    ``vertices`` the number of their distinct vertices.  Cells that tile the
    polygon face to face, as a regular subdivision does, put each of its
    B + I lattice points at a vertex, inside one edge or inside one cell, so
    the points inside edges are those left over."""
    with_interior, interior, basic, units = sums
    return {
        "cells": len(cells),
        "cells_with_interior_points": with_interior,
        "interior_points": interior,
        "edge_interior_points": sum(polygon.counts[1:]) - vertices - interior,
        "basic_cells": basic,
        "unit_parallelograms": units,
    }


_vertices = attrgetter("vertices")
_coords = attrgetter("coords")


@dataclass(frozen=True)
class PolygonComplex:
    """A lattice polygon at height one with its current polygonal subdivision.

    ``lifted`` lists, per subdivision round, the points the round lifted to
    height one (sorted, each once), the rest staying at height zero; these
    0/1 heights assemble into the projectivity certificates of the
    completions.  ``frame``, when set, carries the polygon frame's (x, y, 1)
    into the input lattice, and ``rays`` keeps each cell vertex's vectors in
    both.  ``parallelograms`` lists the unit parallelograms that the
    completions fill, once found; ``triangle_cones`` keeps, for all
    completions, the cones over the triangles they have used, and
    ``triangle_cells`` the basic cells with the fold coefficients of the
    walls between them.  A blow-up phase builds its complex once, after its
    last round.
    """

    polygon: LatticePolytope
    cells: tuple[LatticePolytope, ...]
    lifted: tuple[tuple[Point, ...], ...] = field(default=(), compare=False)
    frame: IntMatrix | None = field(default=None, repr=False, compare=False)

    @classmethod
    def initial(cls, polygon: LatticePolytope, frame: IntMatrix | None = None) -> "PolygonComplex":
        return cls(polygon=polygon, cells=(polygon,), frame=frame)

    def tags(self) -> list[dict]:
        return [c.tag for c in self.cells]

    @cached_property
    def rays(self) -> dict[Point, tuple[LatticeVector, LatticeVector]]:
        """Per cell vertex, in (x, y) order, its lift (x, y, 1) in the polygon
        frame and the image of the lift in the input lattice under ``frame``
        (the lift itself without one): the rays of every completion, each
        mapped once for the completion cones, the trace and the CLI."""
        rows = self.frame.rows if self.frame is not None else None
        out = {}
        for x, y in sorted({p for c in self.cells for p in c.vertices}):
            lift = _made(LatticeVector, (x, y, 1))
            image = lift if rows is None else _made(LatticeVector, tuple(a * x + b * y + c for a, b, c in rows))
            out[(x, y)] = lift, image
        return out

    @cached_property
    def parallelograms(self) -> tuple[LatticePolytope, ...]:
        """The unit parallelogram cells; any other cell must be basic."""
        out = []
        for cell, tag in zip(self.cells, self.tags()):
            if tag["basic"]:
                continue
            if not tag["unit_parallelogram"]:
                raise Resolve3dError(f"cell {cell.vertices} violates the completion precondition")
            out.append(cell)
        return tuple(out)

    @cached_property
    def triangle_cones(self) -> dict[Triangle, tuple[Cone, Dual]]:
        """Per triangle that a completion has used, keyed by its sorted
        vertices, its cone and the dual basis of its lifted vertices; filled by
        ``_completion_for_bits``, so each is built once and read by every
        completion of the piece."""
        return {}

    @cached_property
    def triangle_cells(self) -> tuple[dict[Triangle, None], list[WallTerms], dict[tuple[Point, Point], Point]]:
        """The basic cells as sorted vertex triples, in order, the
        ``_wall_terms`` of the walls between two of them, and each of their
        edges that no other basic cell shares, with its far vertex: what every
        completion keeps of the triangulation."""
        tris = dict.fromkeys(sorted(tuple(sorted(c.vertices)) for c in self.cells if len(c.vertices) == 3))
        open_edges: dict[tuple[Point, Point], Point] = {}
        terms = [_wall_terms(wall) for wall in _walls(tris, open_edges)]
        return tris, terms, open_edges

    def census(self) -> dict:
        vertices = len({p for c in self.cells for p in c.vertices})
        return _census(self.polygon, self.cells, _tag_sums(self.cells), vertices)


# ---------------------------------------------------------------------------
# canonical modification and the polygon normal form
# ---------------------------------------------------------------------------


def canonical_modification(c: Cone) -> Fan:
    """Refinement over the compact hull-floor facets; canonical by construction.

    A Gorenstein cone of index one is already canonical (its integral grading
    functional is at least one on every nonzero lattice point), so {c} is
    returned without computing the floor.  Otherwise the maximal cones sit
    over the compact facets of conv((c ∩ N) - {0}), which ``floor_facets``
    finds and certifies; the fan equals {c} exactly when the cone is
    already canonical.  Projecting the facets from the origin tiles c, so
    the fan is built directly: each piece from its facet's vertices, by
    cross products of consecutive ones (``cone_over_polygon``) in rank 3 and
    by ``simplicial_cone`` in rank 2, with no double description and no
    pairwise intersection.  A facet with primitive normal n at level k gives
    its piece the grading (n / k, k), which the piece keeps as ``grading``.
    """
    if not (c.is_pointed and c.is_full_dimensional):
        raise Resolve3dError(f"canonical modification of {c}: needs a pointed full-dimensional cone")
    if c.lattice_rank > 3:
        raise Resolve3dError(f"canonical modification of {c}: implemented for rank <= 3")
    gd = gorenstein_data(c)
    if gd is not None and gd[1] == 1:
        pieces = [c]
    else:
        try:
            pieces = [_floor_piece(n, k, verts) for n, k, verts, _points in floor_facets(c)]
        except ConeError as e:
            raise Resolve3dError(f"canonical modification of {c}: {e}") from e
        pieces.sort(key=lambda piece: tuple(g.coords for g in piece.generators))
    return Fan(lattice_rank=c.lattice_rank, maximal_cones=tuple(pieces))


def _floor_piece(n: tuple[int, ...], k: int, verts: list[tuple[int, ...]]) -> Cone:
    """The cone over the floor facet with primitive normal n at level k and
    the given vertices, keeping its grading (n / k, k)."""
    piece = simplicial_cone([LatticeVector(v) for v in verts]) if len(n) == 2 else cone_over_polygon(verts)
    piece.__dict__["grading"] = (Covector(tuple(Fraction(x, k) for x in n)), k)
    return piece


def polygon_form(c: Cone) -> tuple[LatticePolytope, IntMatrix]:
    """Height-one polygon of a rank-3 Gorenstein cone plus the basis used.

    The returned unimodular matrix B has the adapted basis as columns, so it
    carries polygon coordinates (x, y, 1) back to the original lattice; the
    grading functional becomes the third coordinate.
    """
    if c.lattice_rank != 3:
        raise Resolve3dError("polygon form is a rank-3 operation")
    gd = gorenstein_data(c)
    if gd is None or gd[1] != 1:
        raise Resolve3dError("polygon form requires a Gorenstein cone of index one")
    polytope, basis = height_one_polytope(c, gd[0])
    if polytope.dimension != 2:
        raise Resolve3dError("degenerate height-one cross-section")
    return polytope, basis


# ---------------------------------------------------------------------------
# the blow-up phases: regular subdivisions induced by 0/1 liftings
# ---------------------------------------------------------------------------


def _inward_edge_normals(hull: list[Point]) -> list[Point]:
    """Primitive inward normals of the edges of a counterclockwise hull.

    A segment, listed as its two endpoints, gets both of its normals.
    """
    if len(hull) < 2:
        return []
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        g = math.gcd(x1 - x0, y1 - y0)
        out.append(((y0 - y1) // g, (x1 - x0) // g))
    return out


def _envelope_subdivision(cell: LatticePolytope, lifted) -> list[LatticePolytope]:
    """Cells of the regular subdivision lifting ``lifted`` to 1, the rest to 0.

    Blowing up the fixed point of a cell lifts its interior lattice points,
    whose hull becomes the central cell; blowing up its singular curves lifts
    its edge-interior points.  With A1 the lifted lattice points and A0 the
    others, the linear pieces of the upper envelope are conv(A1) and, for
    every primitive inward edge normal a of conv(A1) or conv(A0) with
    min_a A1 > min_a A0, conv(argmin_a A1 ∪ argmin_a A0): the Cayley-trick
    picture of a two-level lifting, which needs only planar hulls and dot
    products.  A lifting whose pieces leave out a lattice point of the cell,
    or do not cover it, does not tile the cell and is refused.  A lifted
    point is never a vertex of the cell, so conv(A0) is the cell itself, and
    only conv(A1) is hulled.

    A piece's tight set lies in conv(tight) ∩ Z², so the two are equal, and
    the piece keeps the tight set as its lattice points, exactly when the
    piece's point count B + I (``LatticePolytope.counts``) is |tight|.  All
    points of a ring piece conv(argmin_a A1 ∪ argmin_a A0) lie where a is
    least or greatest on it (De Loera–Rambau–Santos, *Triangulations*, §2.3
    and §9.2), on two parallel lines, so its vertices are the ends of the
    two lines: it has no interior point, and its edge-interior points are
    its tight points less its vertices; so are a central piece's when its
    counts have I = 0, and otherwise it finds both from its edges.
    """
    lifted = set(lifted)
    a1 = [p for p in cell._points if p in lifted]
    a0 = [p for p in cell._points if p not in lifted]
    # conv(A1) is the hull of the least and greatest point of each of its columns
    ends = []
    for _x, column in groupby(a1, itemgetter(0)):
        column = list(column)
        ends += column[0], column[-1]
    top = convex_hull_2d(ends)
    # the monotone chain starts from the least point, as canonical vertices do
    pieces = [(LatticePolytope(tuple(top)), a1)] if len(top) >= 3 else []
    for a in set(_inward_edge_normals(top) + _inward_edge_normals(list(cell.vertices))):
        v1 = [a[0] * p[0] + a[1] * p[1] for p in a1]
        v0 = [a[0] * p[0] + a[1] * p[1] for p in a0]
        m1, m0 = min(v1), min(v0)
        if m1 > m0:
            t1 = [p for p, v in zip(a1, v1) if v == m1]
            t0 = [p for p, v in zip(a0, v0) if v == m0]
            # counterclockwise, the boundary runs along (a[1], -a[0]) on the line of
            # t0 and back on the line of t1; each line's points are in (x, y) order
            if a[1] < 0 or (a[1] == 0 and a[0] > 0):
                t0, t1 = t0[::-1], t1[::-1]
            ring = list(dict.fromkeys((t0[0], t0[-1], t1[-1], t1[0])))  # a one-point line is one vertex
            start = ring.index(min(ring))
            pieces.append((LatticePolytope(tuple(ring[start:] + ring[:start])), t1 + t0))
    cells = []
    for poly, tight in pieces:
        _area2, boundary, interior = poly.counts
        if len(tight) != boundary + interior:
            raise Resolve3dError("envelope subdivision does not tile the cell")
        facts = vars(poly)
        points = facts["_points"] = tuple(sorted(tight))
        if tight is a1 and interior:
            poly._interior, poly._edge_interior  # found from the edges, and kept
        else:  # every point is on the boundary
            facts.update(_interior=(), _edge_interior=tuple(p for p in points if p not in poly.vertices))
        cells.append(poly)
    if sum(c.area2() for c in cells) != cell.area2():
        raise Resolve3dError("envelope subdivision does not tile the cell")
    return cells


@dataclass(frozen=True)
class PhaseRound:
    """One simultaneous round of a blow-up phase, for the trace."""

    phase: str
    centers: tuple[LatticePolytope, ...]
    new_rays: tuple[Point, ...]
    census_after: dict


def _phase(pc: PolygonComplex, phase: str, centres) -> tuple[PolygonComplex, list[PhaseRound]]:
    """Blow up, round by round, every cell whose ``centres(cell)`` is nonempty.

    ``centres`` is ``LatticePolytope.interior_points`` for the fixed-point
    phase and ``LatticePolytope.edge_interior_points`` for the curve phase;
    each round lifts the centres of all eligible cells at once (a point on
    an edge of two of them once).  A cell left alone has no centres, so the
    centres left, the new rays, the census's changes and the next eligible
    cells are read off the cells the round replaced and made; the live cells
    are kept by identity, and the complex is built once, after the last round.
    """
    rounds: list[PhaseRound] = []
    live = {id(c): c for c in pc.cells}
    sums = _tag_sums(pc.cells)
    lifted = list(pc.lifted)
    eligible = [c for c in pc.cells if centres(c)]
    remaining = {p for c in eligible for p in centres(c)}
    vertices = {p for c in pc.cells for p in c.vertices}
    while eligible:
        born: list[LatticePolytope] = []
        for cell in eligible:
            born.extend(_envelope_subdivision(cell, centres(cell)))
            del live[id(cell)]
        live.update((id(c), c) for c in born)
        sums = tuple(s - a + b for s, a, b in zip(sums, _tag_sums(eligible), _tag_sums(born)))
        lifted.append(tuple(sorted(remaining)))
        left = {p for c in born for p in centres(c)}
        if len(left) >= len(remaining):
            raise Resolve3dError(f"{phase} failed to reduce its centres")
        remaining = left
        new_rays = {p for c in born for p in c.vertices} - vertices
        vertices |= new_rays
        census = _census(pc.polygon, live, sums, len(vertices))
        rounds.append(PhaseRound(phase, tuple(eligible), tuple(sorted(new_rays)), census))
        eligible = sorted((c for c in born if centres(c)), key=_vertices)
    if rounds:
        pc = PolygonComplex(pc.polygon, tuple(sorted(live.values(), key=_vertices)), tuple(lifted), pc.frame)
    return pc, rounds


def blowup_fixed_point(pc: PolygonComplex, cell_index: int) -> PolygonComplex:
    """Blow up the distinguished point of one cell with interior lattice points.

    The cell is replaced by the linearity domains of the order function of
    its maximal ideal, the regular subdivision lifting its interior lattice
    points; all new rays stay at height one.
    """
    if not 0 <= cell_index < len(pc.cells):
        raise Resolve3dError(f"cell index {cell_index} is out of range ({len(pc.cells)} cells)")
    cell = pc.cells[cell_index]
    interior = cell.interior_points()
    if not interior:
        raise Resolve3dError("cell is already cDV: no interior lattice points")
    cells = pc.cells[:cell_index] + pc.cells[cell_index + 1:] + tuple(_envelope_subdivision(cell, interior))
    lifted = pc.lifted + (tuple(sorted(interior)),)
    return PolygonComplex(pc.polygon, tuple(sorted(cells, key=_vertices)), lifted, pc.frame)


def crepant_fixed_point_phase(pc: PolygonComplex) -> PolygonComplex:
    """Blow up all cells with interior lattice points, round by round, to exhaustion."""
    return _phase(pc, "fixed-point-blow-up", LatticePolytope.interior_points)[0]


def blowup_curve_phase(pc: PolygonComplex) -> PolygonComplex:
    """Insert all edge-interior lattice points, splitting cells along the
    regular subdivision they induce, until no cell edge has interior points.

    Precondition: the fixed-point phase is finished (no cell has interior
    lattice points).  Afterwards every non-basic cell is a unit
    parallelogram.
    """
    if any(c.interior_points() for c in pc.cells):
        raise Resolve3dError("run the fixed-point phase first: interior points remain")
    pc, _rounds = _phase(pc, "curve-blow-up", LatticePolytope.edge_interior_points)
    pc.parallelograms  # raises unless every non-basic cell is a unit parallelogram
    return pc


# ---------------------------------------------------------------------------
# completions: box diagonals plus projectivity certificates
# ---------------------------------------------------------------------------


def _fourier_motzkin(ineqs: list[tuple[dict[int, int], int]], variables: list[int]):
    """Solve sum(coef_v * x_v) >= const systems exactly; None when infeasible.

    Fourier-Motzkin elimination on integer rows, in the order of
    ``variables``, which lists every variable of the system.  A row waits in
    the bucket of its least variable, the first of its variables to be
    eliminated, so each elimination touches only the rows that hold its
    variable.  A lower bound p * x + ... >= a (p > 0) and an upper bound
    -q * x + ... >= b (q > 0) combine into q * lower + p * upper, divided by
    the gcd of its entries: a positive multiple of the rational combination,
    so every bound, and every value found by back-substitution (the midpoint
    of the tightest bounds, the one tight bound, or 0), is that of rational
    elimination.  The values are back-substituted in integers, as
    numerators over one common denominator: returns (numerators, den) with
    den the least common denominator of the values.
    """
    position = {v: i for i, v in enumerate(variables)}
    buckets: list[list[tuple[dict[int, int], int]]] = [[] for _ in variables]

    def file(lhs: dict[int, int], rhs: int) -> bool:
        """Put the row in its bucket; False when it is 0 >= rhs > 0."""
        if not lhs:
            return rhs <= 0
        g = math.gcd(rhs, *lhs.values())
        if g > 1:
            lhs, rhs = {v: c // g for v, c in lhs.items()}, rhs // g
        buckets[min(map(position.__getitem__, lhs))].append((lhs, rhs))
        return True

    for lhs, rhs in ineqs:
        if not file({v: c for v, c in lhs.items() if c}, rhs):
            return None
    assignments = []
    for i, var in enumerate(variables):
        lowers = [row for row in buckets[i] if row[0][var] > 0]
        uppers = [row for row in buckets[i] if row[0][var] < 0]
        for lo, a in lowers:
            p = lo[var]
            for up, b in uppers:
                q = -up[var]
                comb = {v: q * c for v, c in lo.items() if v != var}
                for v, c in up.items():
                    if v != var:
                        comb[v] = comb.get(v, 0) + p * c
                if not file({v: c for v, c in comb.items() if c}, q * a + p * b):
                    return None
        assignments.append((var, lowers, uppers))
    # every value is its numerator in values over den, the least common
    # denominator of the values found so far
    values: dict[int, int] = {}
    den = 1

    def bound(lhs: dict[int, int], rhs: int, var: int) -> tuple[int, int]:
        # (rhs - sum of c * x over the other variables) / lhs[var], with a positive denominator
        num = rhs * den - sum(c * values[v] for v, c in lhs.items() if v != var)
        return (num, lhs[var] * den) if lhs[var] > 0 else (-num, -lhs[var] * den)

    def tightest(bounds, sign: int):
        best = None
        for num, d in bounds:
            if best is None or sign * (num * best[1] - best[0] * d) > 0:
                best = (num, d)
        return best

    for var, lowers, uppers in reversed(assignments):
        lo = tightest((bound(l, r, var) for l, r in lowers), 1)
        up = tightest((bound(l, r, var) for l, r in uppers), -1)
        if lo is not None and up is not None:
            if lo[0] * up[1] > up[0] * lo[1]:
                return None
            num, d = lo[0] * up[1] + up[0] * lo[1], 2 * lo[1] * up[1]
        else:
            num, d = lo or up or (0, 1)
        g = math.gcd(num, d)
        num, d = num // g, d // g
        scale = d // math.gcd(den, d)
        if scale > 1:
            values = {v: x * scale for v, x in values.items()}
            den *= scale
        values[var] = num * (den // d)
    return values, den


def _parallelogram_diagonals(cell: LatticePolytope):
    v = cell.vertices
    d1 = tuple(sorted((v[0], v[2])))
    d2 = tuple(sorted((v[1], v[3])))
    return tuple(sorted((d1, d2)))


def _basic_triangle_cone(t: Triangle, rays) -> tuple[Cone, Dual]:
    """The cone over a unimodular triangle lifted to height one, and the dual
    basis of its lifted vertices in their order; the generators are the
    lifts in ``rays`` (``PolygonComplex.rays``), in the triangle's order.

    With rows rᵢ = (xᵢ, yᵢ, 1), det = r₀ · (r₁ × r₂) is the triangle's doubled
    signed area, and the adjugate columns are the cross products
    rⱼ × rₖ = (yⱼ − yₖ, xₖ − xⱼ, xⱼyₖ − xₖyⱼ) for (i, j, k) a cyclic order;
    both are read off the plane vertices.  When det = ±1, nᵢ = det · (rⱼ × rₖ)
    pairs to 1 with rᵢ and to 0 with the other rows: the nᵢ are primitive,
    and they are the cone's inward facet normals, as ``simplicial_cone``
    finds them.  A height function h on the triangle has the linear
    representative Σ h(pᵢ) nᵢ.
    """
    (x0, y0), (x1, y1), (x2, y2) = t
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det not in (1, -1):
        raise Resolve3dError(f"completion triangle {t} is not basic")
    dual = (
        (det * (y1 - y2), det * (x2 - x1), det * (x1 * y2 - x2 * y1)),
        (det * (y2 - y0), det * (x0 - x2), det * (x2 * y0 - x0 * y2)),
        (det * (y0 - y1), det * (x1 - x0), det * (x0 * y1 - x1 * y0)),
    )
    # sorted vertices lift to sorted generators
    cone = Cone(
        lattice_rank=3,
        generators=tuple(rays[p][0] for p in t),
        inequalities=tuple(_made(Covector, n) for n in sorted(dual)),
    )
    return cone, dual


def _walls(tris, opposite: dict[tuple[Point, Point], Point]) -> list[Wall]:
    """(a, b, c, d) for each wall ab of a triangle abd of ``tris`` and a
    triangle abc met before, whose open edges ``opposite`` maps to their far
    vertices; it takes the edges of ``tris`` that stay open."""
    walls = []
    for tri in tris:
        for k in range(3):
            a, b = sorted((tri[k], tri[(k + 1) % 3]))
            d = tri[(k + 2) % 3]
            c = opposite.pop((a, b), None)
            if c is None:
                opposite[(a, b)] = d
            else:
                walls.append((a, b, c, d))
    return walls


def _wall_terms(wall: Wall) -> WallTerms:
    """The points of the wall (a, b, c, d) with their coefficients in the fold
    of h, the affine interpolant of h on abc at d minus h(d): on a unimodular
    abc, d has the integer barycentric coordinates 1 - x - y, x, y."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = wall
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    if det not in (1, -1):
        raise Resolve3dError(f"wall triangle {wall[:3]} is not unimodular")
    x = det * ((dx - ax) * (cy - ay) - (cx - ax) * (dy - ay))
    y = det * ((bx - ax) * (dy - ay) - (dx - ax) * (by - ay))
    return tuple(zip(wall, (1 - x - y, x, y, -1)))


def _composite_heights(pc: PolygonComplex, chi: dict[Point, int], tris) -> dict[Point, int]:
    """Exact integral heights whose folds are strictly positive on every wall.

    Sums the per-round 0/1 heights (1 on the points that ``pc.lifted`` lists
    for the round) and the diagonal-choice correction chi with weights
    2^(t(L-r)) for round r of L and 1 for chi, at the least t from 0 that
    makes every fold positive, then divides out the common power of two;
    this is the sum with weights eps^(r+1), eps = 2^-t, with denominators
    cleared.  Every cell is basic or a unit parallelogram, so every lifted
    point is a vertex.  A wall's fold is linear in the heights, so its
    coefficients (``_wall_terms``) are found once: the piece keeps those of
    the walls between its basic cells (``pc.triangle_cells``), and only the
    walls of the diagonals' triangles are found for each completion.
    """
    basic, terms, open_edges = pc.triangle_cells
    terms = terms + [_wall_terms(wall) for wall in _walls([t for t in tris if t not in basic], dict(open_edges))]
    top = len(pc.lifted)
    for t in range(64):
        heights = dict.fromkeys(pc.rays, 0)  # the vertices of the triangles
        for r, points in enumerate(pc.lifted):
            weight = 1 << (t * (top - r))
            for p in points:
                heights[p] += weight
        for p, v in chi.items():
            heights[p] += v
        # the terms of a wall (a, b, c, d) carry the coefficient -1 on d
        if all(
            ka * heights[a] + kb * heights[b] + kc * heights[c] > heights[d]
            for (a, ka), (b, kb), (c, kc), (d, _) in terms
        ):
            g = math.gcd(1 << (t * (top + 1)), *heights.values())
            return {p: v // g for p, v in heights.items()}
    raise Resolve3dError("could not certify projectivity: fold margins kept failing")


def _completion_for_bits(pc: PolygonComplex, bits: tuple[int, ...]) -> tuple[Fan, SupportFunction]:
    tris = list(pc.triangle_cells[0])
    var_index: dict[Point, int] = {}
    ineqs = []
    for cell, bit in zip(pc.parallelograms, bits):
        diag = _parallelogram_diagonals(cell)[bit]
        others = tuple(v for v in cell.vertices if v not in diag)
        tris += [tuple(sorted(diag + (v,))) for v in others]
        coeffs: dict[int, int] = {}
        for p, sign in [(diag[0], 1), (diag[1], 1), (others[0], -1), (others[1], -1)]:
            i = var_index.setdefault(p, len(var_index))
            coeffs[i] = coeffs.get(i, 0) + sign
        ineqs.append((coeffs, 1))
    # sorted vertex triples order the cones as their generators do
    tris.sort()
    # the cones first: they refuse a triangle that is not basic
    known = pc.triangle_cones
    rays = pc.rays
    for t in tris:
        if t not in known:
            known[t] = _basic_triangle_cone(t, rays)
    chi: dict[Point, int] = {}
    if ineqs:
        sol = _fourier_motzkin(ineqs, list(range(len(var_index))))
        if sol is None:
            raise Resolve3dError("diagonal-choice system unexpectedly infeasible")
        numerators, _den = sol
        for p, i in var_index.items():
            chi[p] = numerators[i]
    heights = _composite_heights(pc, chi, tris)
    fan = Fan(lattice_rank=3, maximal_cones=tuple(known[t][0] for t in tris))
    vars(fan)["_rays"] = tuple(lift for lift, _image in rays.values())
    reps = {}
    for i, t in enumerate(tris):
        a, b, c = t
        ha, hb, hc = heights[a], heights[b], heights[c]
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = known[t][1]
        reps[i] = _made(
            Covector, (ha * a0 + hb * b0 + hc * c0, ha * a1 + hb * b1 + hc * c1, ha * a2 + hb * b2 + hc * c2)
        )
    psi = SupportFunction(
        fan=fan,
        ray_values={rays[p][0].coords: h for p, h in heights.items()},
        linear_reps=reps,
    )
    if not is_strictly_upper_convex(psi):
        raise Resolve3dError("projectivity certificate failed exact verification")
    return fan, psi


def completion(pc: PolygonComplex, index: int) -> tuple[Fan, SupportFunction]:
    """Box-diagonal filling number ``index`` of the remaining ordinary double points.

    Every non-basic cell must be a unit parallelogram; with k of them, the k
    binary digits of ``index`` (most significant first) pick their diagonals.
    Returns a fan of basic cones at height one and an integral-height support
    function strictly upper convex exactly on it (the projectivity certificate).
    """
    k = len(pc.parallelograms)
    if not 0 <= index < 2**k:
        raise Resolve3dError(f"completion index {index} out of range: 2^{k} completions ({k} unit parallelograms)")
    bits = tuple((index >> (k - 1 - j)) & 1 for j in range(k))
    return _completion_for_bits(pc, bits)


def completions(pc: PolygonComplex) -> Iterator[tuple[Fan, SupportFunction]]:
    """All 2^k completions, ``completion(pc, i)`` for i from 0 to 2^k - 1,
    each built as it is drawn; a broken precondition raises at the call."""
    return (completion(pc, i) for i in range(2 ** len(pc.parallelograms)))


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionStep:
    """One recorded modification step of the pipeline."""

    phase: str  # canonical | fixed-point-blow-up | curve-blow-up | completion
    piece: int | None
    centers: tuple
    new_rays: tuple[LatticeVector, ...]
    discrepancy: DiscrepancyReport | None
    census_after: dict


Piece = tuple[PolygonComplex, IntMatrix, list[PhaseRound], CoverCertificate | None]


@dataclass(frozen=True)
class ResolutionTrace:
    """Ordered record of the modification steps plus, per canonical piece in
    order, what ``resolve_piece`` returned for it and its completion 0 (in
    the piece's polygon coordinates; none for a basic input cone)."""

    steps: tuple[ResolutionStep, ...]
    pieces: tuple[Piece, ...] = ()
    first_completions: tuple[tuple[Fan, SupportFunction], ...] = ()

    @property
    def covers(self) -> tuple[tuple[int, CoverCertificate], ...]:
        """The index-one cover certificates, with the index of their piece."""
        return tuple((i, p[3]) for i, p in enumerate(self.pieces) if p[3] is not None)

    @property
    def is_crepant_after_canonical(self) -> bool:
        return all(
            s.discrepancy is None or s.discrepancy.is_crepant
            for s in self.steps
            if s.phase != "canonical"
        )


def _report_for(base: Cone, m: Covector, rays) -> DiscrepancyReport:
    base_rays = {g.coords for g in base.generators}
    entries = tuple(
        (v, m.pair(v) - 1) for v in sorted(rays) if v.coords not in base_rays
    )
    return DiscrepancyReport(base_cone=base, m_sigma=m, entries=entries)


def resolve_piece(piece: Cone) -> Piece:
    """Both crepant blow-up phases on one canonical piece.

    Returns the final polygon complex, the matrix carrying its polygon
    coordinates (x, y, 1) back to the piece's lattice (the complex keeps it
    as its ``frame``), the phase rounds, and the index-one cover certificate
    (``None`` when the piece is Gorenstein).
    """
    gd = gorenstein_data(piece)
    if gd is None:
        raise Resolve3dError("canonical piece unexpectedly not Q-Gorenstein")
    if gd[1] == 1:
        work, cert = piece, None
    else:
        work, cert = index_one_cover(piece)
    polygon, basis = polygon_form(work)
    to_ambient = basis if cert is None else cert.sublattice_basis * basis
    pc, fixed_point_rounds = _phase(
        PolygonComplex.initial(polygon, to_ambient), "fixed-point-blow-up", LatticePolytope.interior_points
    )
    pc, curve_rounds = _phase(pc, "curve-blow-up", LatticePolytope.edge_interior_points)
    return pc, to_ambient, fixed_point_rounds + curve_rounds, cert


def resolve(c: Cone) -> tuple[Fan, ResolutionTrace]:
    """Canonical modification, index-one covers, crepant phases, first completion.

    Pieces of index greater than one are resolved inside their grading
    sublattice and the cover is recorded in the trace; the final fan is the
    union of the per-piece triangulation fans expressed in the original
    lattice (each cone basic w.r.t. its piece's working lattice).
    """
    if c.lattice_rank != 3 or not (c.is_pointed and c.is_full_dimensional):
        raise Resolve3dError(f"resolution of {c}: needs a pointed full-dimensional rank-3 cone")
    if is_basic(c):
        return make_fan([c]), ResolutionTrace(steps=(), pieces=(resolve_piece(c),))
    steps: list[ResolutionStep] = []
    pieces: list[Piece] = []
    first_completions: list[tuple[Fan, SupportFunction]] = []
    base_gd = gorenstein_data(c)
    can_fan = canonical_modification(c)
    base_rays = {g.coords for g in c.generators}
    can_new = [r for r in can_fan.rays() if r.coords not in base_rays]
    steps.append(
        ResolutionStep(
            phase="canonical",
            piece=None,
            centers=(),
            new_rays=tuple(can_new),
            discrepancy=(
                _report_for(c, base_gd[0], can_fan.rays()) if base_gd else None
            ),
            census_after={"pieces": len(can_fan.maximal_cones)},
        )
    )
    final_cones: list[Cone] = []
    for piece_index, piece in enumerate(can_fan.maximal_cones):
        pieces.append(resolve_piece(piece))
        pc, to_ambient, rounds, _cert = pieces[-1]
        m_piece = piece.grading[0]
        rays = pc.rays
        for rnd in rounds:
            mapped = tuple(sorted((rays[p][1] for p in rnd.new_rays), key=_coords))
            steps.append(
                ResolutionStep(
                    phase=rnd.phase,
                    piece=piece_index,
                    centers=rnd.centers,
                    new_rays=mapped,
                    discrepancy=_report_for(
                        piece, m_piece, list(piece.generators) + list(mapped)
                    ),
                    census_after=rnd.census_after,
                )
            )
        # a completion joins existing vertices only, so it adds no ray
        first_completions.append(completion(pc, 0))
        fan_local = first_completions[-1][0]
        images = {lift.coords: image for lift, image in rays.values()}
        final_cones.extend(_mapped_cones(fan_local.maximal_cones, to_ambient, images))
        steps.append(
            ResolutionStep(
                phase="completion",
                piece=piece_index,
                centers=pc.parallelograms,
                new_rays=(),
                discrepancy=_report_for(piece, m_piece, ()),
                census_after={
                    "completions": 2 ** len(pc.parallelograms),
                    "maximal_cones": len(fan_local.maximal_cones),
                },
            )
        )
    key = lambda cone: tuple(g.coords for g in cone.generators)
    fan = Fan(lattice_rank=3, maximal_cones=tuple(sorted(final_cones, key=key)))
    return fan, ResolutionTrace(tuple(steps), tuple(pieces), tuple(first_completions))
