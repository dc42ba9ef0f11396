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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .classify import (
    CoverCertificate,
    LatticePolytope,
    convex_hull_2d,
    gorenstein_data,
    height_one_polytope,
    index_one_cover,
)
from .cones import (
    Cone, ConeError, Fan, _mapped_cones, _simplicial_cone, cone_over_polygon, is_basic, make_fan, simplicial_cone
)
from .divisors import DiscrepancyReport, SupportFunction, is_strictly_upper_convex
from .hilbert import floor_facets, floor_polygon
from .lattice import Covector, IntMatrix, LatticeVector


class Resolve3dError(ValueError):
    """Domain error raised by the 3D resolution pipeline."""


Point = tuple[int, int]
HeightMap = tuple[tuple[Point, int], ...]
Triangle = tuple[Point, Point, Point]
Dual = tuple[tuple[int, int, int], ...]
Wall = tuple[Point, Point, Point, Point]


# ---------------------------------------------------------------------------
# the state object: a polygon with its current subdivision
# ---------------------------------------------------------------------------


def _cell_tag(cell: LatticePolytope) -> dict:
    interior = cell.interior_points()
    edge_interior = cell.edge_interior_points()
    area2 = cell.area2()
    is_parallelogram = (
        len(cell.vertices) == 4
        and tuple(a + c for a, c in zip(cell.vertices[0], cell.vertices[2]))
        == tuple(b + d for b, d in zip(cell.vertices[1], cell.vertices[3]))
    )
    return {
        "interior_points": len(interior),
        "edge_interior_points": len(edge_interior),
        "basic": area2 == 1,
        "unit_parallelogram": is_parallelogram and area2 == 2 and not interior and not edge_interior,
    }


@dataclass(frozen=True)
class PolygonComplex:
    """A lattice polygon at height one with its current polygonal subdivision.

    ``round_heights`` accumulates, per subdivision round, the 0/1 lattice
    heights whose regular subdivisions produced the rounds; they assemble
    into the projectivity certificates of the completions.  ``parallelograms``
    lists the unit parallelograms that the completions fill, once found;
    ``triangle_cones`` and ``round_folds`` keep, for all completions, the
    cones over the triangles and the round folds across the walls they have
    used.
    """

    polygon: LatticePolytope
    cells: tuple[LatticePolytope, ...]
    round_heights: tuple[HeightMap, ...] = ()

    @classmethod
    def initial(cls, polygon: LatticePolytope) -> "PolygonComplex":
        return cls(polygon=polygon, cells=(polygon,))

    def replace_cells(self, cells, new_round: dict[Point, int] | None = None) -> "PolygonComplex":
        rounds = self.round_heights
        if new_round:
            rounds = rounds + (tuple(sorted(new_round.items())),)
        return PolygonComplex(
            polygon=self.polygon,
            cells=tuple(sorted(cells, key=lambda c: c.vertices)),
            round_heights=rounds,
        )

    def tags(self) -> list[dict]:
        # cells are immutable: each keeps its tag beside its other cached facts
        for c in self.cells:
            if "_tag" not in vars(c):
                vars(c)["_tag"] = _cell_tag(c)
        return [vars(c)["_tag"] for c in self.cells]

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
        """Per triangle that a completion has used, keyed by its vertices in
        the order ``_triangulation_cells`` lists them, its cone and the dual
        basis of its lifted vertices; filled by ``_completion_for_bits``, so
        each is built once and read by every completion of the piece."""
        return {}

    @cached_property
    def round_folds(self) -> dict[Wall, tuple[int, ...]]:
        """Per wall (a, b, c, d) that a completion has met, the folds of the
        round heights across it, in round order; filled by
        ``_composite_heights``, since completions share most of their walls."""
        return {}

    def census(self) -> dict:
        tags = self.tags()
        return {
            "cells": len(self.cells),
            "cells_with_interior_points": sum(1 for t in tags if t["interior_points"]),
            "interior_points": sum(t["interior_points"] for t in tags),
            "edge_interior_points": len({p for c in self.cells for p in c._edge_interior}),
            "basic_cells": sum(1 for t in tags if t["basic"]),
            "unit_parallelograms": sum(1 for t in tags if t["unit_parallelogram"]),
        }

    def __eq__(self, other):
        return (
            isinstance(other, PolygonComplex)
            and self.polygon == other.polygon
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.polygon, self.cells))


# ---------------------------------------------------------------------------
# canonical modification and the polygon normal form
# ---------------------------------------------------------------------------


def canonical_modification(c: Cone) -> Fan:
    """Refinement over the compact hull-floor facets; canonical by construction.

    A Gorenstein cone of index one is already canonical (its integral grading
    functional is at least one on every nonzero lattice point), so {c} is
    returned without computing the floor.  Otherwise the maximal cones sit
    over the compact facets of conv((c ∩ N) - {0}), which ``floor_facets``
    gift-wraps and certifies; the fan equals {c} exactly when the cone is
    already canonical.  Projecting the facets from the origin tiles c, so
    the fan is built directly: each piece from its facet's vertices, by
    cross products of consecutive ones (``cone_over_polygon``) in rank 3 and
    by ``simplicial_cone`` in rank 2, with no double description and no
    pairwise intersection.  A facet with primitive normal n at level k gives
    its piece the grading (n / k, k), which the piece keeps as ``grading``.
    """
    if not (c.is_pointed and c.is_full_dimensional):
        raise Resolve3dError("canonical modification needs a pointed full-dimensional cone")
    if c.lattice_rank > 3:
        raise Resolve3dError("canonical modification implemented for rank <= 3")
    gd = gorenstein_data(c)
    if gd is not None and gd[1] == 1:
        pieces = [c]
    else:
        try:
            pieces = [_floor_piece(facet) for facet in floor_facets(c)]
        except ConeError as e:
            raise Resolve3dError(f"canonical modification of {c}: {e}") from e
        pieces.sort(key=lambda piece: tuple(g.coords for g in piece.generators))
    return Fan(lattice_rank=c.lattice_rank, maximal_cones=tuple(pieces))


def _floor_piece(facet: list[LatticeVector]) -> Cone:
    """The cone over one floor facet, keeping its grading from the facet normal."""
    n, k, verts = floor_polygon(facet)
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


def _lift(p: Point) -> LatticeVector:
    return LatticeVector((p[0], p[1], 1))


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
    or do not cover it, does not tile the cell and is refused.
    """
    lifted = set(lifted)
    points = [tuple(p) for p in cell.lattice_points()]
    a1 = [p for p in points if p in lifted]
    a0 = [p for p in points if p not in lifted]
    top = convex_hull_2d(a1)
    pieces = [a1] if len(top) >= 3 else []
    for a in set(_inward_edge_normals(top) + _inward_edge_normals(convex_hull_2d(a0))):
        v1 = [a[0] * p[0] + a[1] * p[1] for p in a1]
        v0 = [a[0] * p[0] + a[1] * p[1] for p in a0]
        m1, m0 = min(v1), min(v0)
        if m1 > m0:
            pieces.append(
                [p for p, v in zip(a1, v1) if v == m1] + [p for p, v in zip(a0, v0) if v == m0]
            )
    cells = []
    for tight in pieces:
        poly = LatticePolytope.from_points(tight)
        if set(tight) != set(poly.lattice_points()):
            raise Resolve3dError("envelope subdivision does not tile the cell")
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
    each round lifts the centres of all eligible cells at once.
    """
    rounds: list[PhaseRound] = []
    remaining = {p for c in pc.cells for p in centres(c)}
    while remaining:
        old_points = {p for c in pc.cells for p in c.vertices}
        eligible: list[LatticePolytope] = []
        new_cells: list[LatticePolytope] = []
        heights: dict[Point, int] = {}
        for cell in pc.cells:
            lifted = centres(cell)
            if not lifted:
                new_cells.append(cell)
                continue
            eligible.append(cell)
            new_cells.extend(_envelope_subdivision(cell, lifted))
            heights.update(dict.fromkeys(lifted, 1))
        pc = pc.replace_cells(new_cells, new_round=heights)
        left = {p for c in pc.cells for p in centres(c)}
        if len(left) >= len(remaining):
            raise Resolve3dError(f"{phase} failed to reduce its centres")
        remaining = left
        new_rays = tuple(sorted({p for c in pc.cells for p in c.vertices} - old_points))
        rounds.append(PhaseRound(phase, tuple(eligible), new_rays, pc.census()))
    return pc, rounds


def blowup_fixed_point(pc: PolygonComplex, cell_index: int) -> PolygonComplex:
    """Blow up the distinguished point of one cell with interior lattice points.

    The cell is replaced by the linearity domains of the order function of
    its maximal ideal, the regular subdivision lifting its interior lattice
    points; all new rays stay at height one.
    """
    cell = pc.cells[cell_index]
    interior = cell.interior_points()
    if not interior:
        raise Resolve3dError("cell is already cDV: no interior lattice points")
    cells = [c for i, c in enumerate(pc.cells) if i != cell_index]
    cells += _envelope_subdivision(cell, interior)
    return pc.replace_cells(cells, new_round=dict.fromkeys(interior, 1))


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
    elimination.  The values are ``Fraction``s.
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
    values: dict[int, Fraction] = {}

    def bound(lhs: dict[int, int], rhs: int, var: int) -> Fraction:
        # (rhs - sum of c * x over the other variables) / lhs[var], over one common denominator
        terms = [(c, values[v]) for v, c in lhs.items() if v != var]
        den = math.lcm(*(x.denominator for _c, x in terms))
        num = rhs * den - sum(c * x.numerator * (den // x.denominator) for c, x in terms)
        return Fraction(num, lhs[var] * den)

    for var, lowers, uppers in reversed(assignments):
        lo = max((bound(l, r, var) for l, r in lowers), default=None)
        up = min((bound(l, r, var) for l, r in uppers), default=None)
        if lo is not None and up is not None:
            if lo > up:
                return None
            values[var] = (lo + up) / 2
        elif lo is not None:
            values[var] = lo
        elif up is not None:
            values[var] = up
        else:
            values[var] = Fraction(0)
    return values


def _parallelogram_diagonals(cell: LatticePolytope):
    v = cell.vertices
    d1 = tuple(sorted((v[0], v[2])))
    d2 = tuple(sorted((v[1], v[3])))
    return tuple(sorted((d1, d2)))


def _triangulation_cells(pc: PolygonComplex, choice: dict[LatticePolytope, tuple[Point, Point]]):
    tris = []
    for cell in pc.cells:
        if len(cell.vertices) == 3:
            tris.append(tuple(cell.vertices))
            continue
        diag = choice[cell]
        v = list(cell.vertices)
        i = v.index(diag[0])
        if v[(i + 2) % 4] != diag[1]:
            raise Resolve3dError("chosen diagonal does not join opposite vertices")
        tris.append((v[i], v[(i + 1) % 4], v[(i + 2) % 4]))
        tris.append((v[(i + 2) % 4], v[(i + 3) % 4], v[i]))
    return tris


def _basic_triangle_cone(t: Triangle) -> tuple[Cone, Dual]:
    """The cone over a unimodular triangle lifted to height one, and the dual
    basis of its lifted vertices in their order.

    With rows rᵢ = (xᵢ, yᵢ, 1) and det = r₀ · (r₁ × r₂) = ±1, the adjugate
    columns are the cross products rᵢ₊₁ × rᵢ₊₂, and nᵢ = det · (rᵢ₊₁ × rᵢ₊₂)
    pairs to 1 with rᵢ and to 0 with the other rows; these are the cone's
    inward facet normals, as ``simplicial_cone`` finds them.  A height
    function h on the triangle has the linear representative Σ h(pᵢ) nᵢ.
    """
    cone, det, cols = _simplicial_cone([LatticeVector((x, y, 1)) for x, y in t])
    if det not in (1, -1):
        raise Resolve3dError(f"completion triangle {t} is not basic")
    return cone, tuple(tuple(det * x for x in col) for col in cols)


def _walls(tris) -> list[Wall]:
    """(a, b, c, d) for each interior wall ab of triangles abc and abd."""
    opposite: dict[tuple[Point, Point], Point] = {}
    walls = []
    for tri in tris:
        for k in range(3):
            a, b = sorted((tri[k], tri[(k + 1) % 3]))
            c = tri[(k + 2) % 3]
            if (a, b) in opposite:
                walls.append((a, b, opposite[(a, b)], c))
            else:
                opposite[(a, b)] = c
    return walls


def _fold(wall, h: dict[Point, int]) -> int:
    """Fold of h across the wall (a, b, c, d): the affine interpolant of h on
    abc at d, minus h(d).

    On a unimodular abc the barycentric coordinates of d are the integers
    1 - x - y, x, y; absent points have height 0.
    """
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = wall
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    if det not in (1, -1):
        raise Resolve3dError(f"wall triangle {wall[:3]} is not unimodular")
    x = det * ((dx - ax) * (cy - ay) - (cx - ax) * (dy - ay))
    y = det * ((bx - ax) * (dy - ay) - (dx - ax) * (by - ay))
    a, b, c, d = (h.get(p, 0) for p in wall)
    return a + x * (b - a) + y * (c - a) - d


def _support_fold(wall, h: dict[Point, int]) -> int:
    """``_fold`` of h across the wall, or 0 at once when h lists none of its
    four points (absent points have height 0)."""
    return 0 if h.keys().isdisjoint(wall) else _fold(wall, h)


def _composite_heights(pc: PolygonComplex, chi: dict[Point, int], tris) -> dict[Point, int]:
    """Exact integral heights whose folds are strictly positive on every wall.

    Sums the per-round 0/1 height maps and the diagonal-choice correction chi
    with weights 2^(t(L-1-r)) for layer r of L, at the least t that makes
    every fold positive, then divides out the common power of two; this is
    the sum with weights eps^(r+1), eps = 2^-t, with denominators cleared.
    Folds are linear in the heights, so each layer is folded on its own, and
    only across the walls with a point that it lists.  The folds of the
    rounds across a wall do not depend on the diagonals, so the piece keeps
    them, in ``pc.round_folds``, for all its completions; only chi is folded
    for each.
    """
    rounds = [dict(r) for r in pc.round_heights]
    known = pc.round_folds
    folds = []  # per wall: the folds of the rounds, and the fold of chi
    for wall in _walls(tris):
        if wall not in known:
            known[wall] = tuple(_support_fold(wall, layer) for layer in rounds)
        folds.append((known[wall], _support_fold(wall, chi)))
    top = len(rounds)
    for t in range(64):
        # chi, the last layer, has weight 1
        weights = [1 << (t * (top - r)) for r in range(top)] + [1]
        if all(sum(map(mul, weights, round_folds)) + chi_fold > 0 for round_folds, chi_fold in folds):
            heights = dict.fromkeys((p for tri in tris for p in tri), 0)
            for w, layer in zip(weights, rounds + [chi]):
                for p, h in layer.items():
                    if p in heights:
                        heights[p] += w * h
            g = math.gcd(1 << (t * (top + 1)), *heights.values())
            return {p: v // g for p, v in heights.items()}
    raise Resolve3dError("could not certify projectivity: fold margins kept failing")


def _completion_for_bits(pc: PolygonComplex, bits: tuple[int, ...]) -> tuple[Fan, SupportFunction]:
    choice = {}
    for cell, bit in zip(pc.parallelograms, bits):
        choice[cell] = _parallelogram_diagonals(cell)[bit]
    tris = _triangulation_cells(pc, choice)
    # the cones first: they refuse a triangle that is not basic
    known = pc.triangle_cones
    cones = []
    for t in tris:
        if t not in known:
            known[t] = _basic_triangle_cone(t)
        cones.append(known[t])
    var_index: dict[Point, int] = {}
    ineqs = []
    for cell in pc.parallelograms:
        diag = choice[cell]
        others = tuple(v for v in cell.vertices if v not in diag)
        coeffs: dict[int, int] = {}
        for p, sign in [(diag[0], 1), (diag[1], 1), (others[0], -1), (others[1], -1)]:
            i = var_index.setdefault(p, len(var_index))
            coeffs[i] = coeffs.get(i, 0) + sign
        ineqs.append((coeffs, 1))
    chi: dict[Point, int] = {}
    if ineqs:
        sol = _fourier_motzkin(ineqs, list(range(len(var_index))))
        if sol is None:
            raise Resolve3dError("diagonal-choice system unexpectedly infeasible")
        denom = math.lcm(*(v.denominator for v in sol.values()))
        for p, i in var_index.items():
            chi[p] = int(sol[i] * denom)
    heights = _composite_heights(pc, chi, tris)
    pairs = []
    for (a, b, c), (cone, dual) in zip(tris, cones):
        ha, hb, hc = heights[a], heights[b], heights[c]
        pairs.append((cone, Covector(tuple(ha * x + hb * y + hc * z for x, y, z in zip(*dual)))))
    pairs.sort(key=lambda cm: tuple(g.coords for g in cm[0].generators))
    fan = Fan(lattice_rank=3, maximal_cones=tuple(cone for cone, _m in pairs))
    psi = SupportFunction(
        fan=fan,
        ray_values={r.coords: heights[(r.coords[0], r.coords[1])] for r in fan.rays()},
        linear_reps={i: m for i, (_cone, m) in enumerate(pairs)},
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
        raise Resolve3dError(f"completion index {index} out of range ({2**k} completions)")
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
    coordinates (x, y, 1) back to the piece's lattice, the phase rounds, and
    the index-one cover certificate (``None`` when the piece is Gorenstein).
    """
    gd = gorenstein_data(piece)
    if gd is None:
        raise Resolve3dError("canonical piece unexpectedly not Q-Gorenstein")
    if gd[1] == 1:
        work, cert = piece, None
    else:
        work, cert = index_one_cover(piece)
    polygon, basis = polygon_form(work)
    pc, fixed_point_rounds = _phase(
        PolygonComplex.initial(polygon), "fixed-point-blow-up", LatticePolytope.interior_points
    )
    pc, curve_rounds = _phase(pc, "curve-blow-up", LatticePolytope.edge_interior_points)
    to_ambient = basis if cert is None else cert.sublattice_basis * basis
    return pc, to_ambient, fixed_point_rounds + curve_rounds, cert


def resolve(c: Cone) -> tuple[Fan, ResolutionTrace]:
    """Canonical modification, index-one covers, crepant phases, first completion.

    Pieces of index greater than one are resolved inside their grading
    sublattice and the cover is recorded in the trace; the final fan is the
    union of the per-piece triangulation fans expressed in the original
    lattice (each cone basic w.r.t. its piece's working lattice).
    """
    if c.lattice_rank != 3 or not (c.is_pointed and c.is_full_dimensional):
        raise Resolve3dError("resolve expects a pointed full-dimensional rank-3 cone")
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
        for rnd in rounds:
            mapped = tuple(sorted(to_ambient.apply(_lift(p)) for p in rnd.new_rays))
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
        final_cones.extend(_mapped_cones(fan_local.maximal_cones, to_ambient))
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
