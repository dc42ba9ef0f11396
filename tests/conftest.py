"""Shared brute-force oracles and generators for the test suite.

The oracles are deliberately independent of the library's own algorithms:
ranks are computed by elimination over the rationals, lattice points are
enumerated over bounding boxes and filtered (also a grading slab), the
stacked-polytope oracles try explicit unimodular maps against the literal
construction or anchor each edge as the base of a shear, fixed-point blow-ups are recomputed from the paper's
definition as linearity domains of the order function, envelope
subdivisions and hull floors are recomputed by a 4-D double description,
rank-2 Hilbert bases by the parallelepiped walk and its domination filter,
rank-2 floors and minimal resolutions by the angular chain of that basis,
each floor facet's normal, level and vertices from its points,
canonical modifications by validated fans of those floors, completion
heights are recomputed with rational weights and barycentric folds,
diagonal-choice systems are solved by Fourier-Motzkin over the rationals,
completion certificates are rebuilt with three cofactor passes per
triangle, strict convexity is rechecked membership first, final fans are
rebuilt with a second adjugate per cone, interior points are found by
a strict bounding-box scan, linear systems are solved by Gauss-Jordan
elimination over the rationals, double descriptions are rerun with
frozenset incidence and extremality decided by rational rank, and facets
of full-dimensional rank-3 and rank-4 cones are found by trying every
hyperplane through rank - 1 generators.
"""

import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from toresolve.cones import (
    Cone, ConeError, Fan, _cross, _gcd_normalize, dual_cone, extreme_rays, is_basic, make_cone,
    make_fan, simplicial_cone,
)
from toresolve.classify import LatticePolytope, convex_hull_2d
from toresolve.divisors import SupportFunction, with_linear_representatives
from toresolve.hilbert import _dot, _parallelepiped_points, _polygon, _sub, hilbert_basis
from toresolve.lattice import Covector, IntMatrix, LatticeError, LatticeVector, _turn, extended_gcd_vector
from toresolve.resolve3d import PolygonComplex, Resolve3dError, _wall_terms, _walls, blowup_fixed_point

Point = tuple[int, int]


def box_hilbert_oracle(c: Cone) -> list[LatticeVector]:
    """Hilbert basis by enumerating cone points in the generator zonotope box
    and filtering sums; independent of the triangulation route."""
    rank = c.lattice_rank
    corners = []
    for coeffs in itertools.product((0, 1), repeat=len(c.generators)):
        s = [0] * rank
        for t, g in zip(coeffs, c.generators):
            if t:
                s = [a + b for a, b in zip(s, g.coords)]
        corners.append(s)
    los = [min(cs[i] for cs in corners) for i in range(rank)]
    his = [max(cs[i] for cs in corners) for i in range(rank)]
    pts = []
    for p in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        v = LatticeVector(p)
        if not v.is_zero and c.contains(v):
            pts.append(v)
    xi = [0] * rank
    for m in c.inequalities:
        mp = m.primitive()
        for i in range(rank):
            xi[i] += int(mp.coords[i])
    weight = lambda v: sum(a * b for a, b in zip(xi, v.coords))
    pts.sort(key=weight)
    weights = [weight(v) for v in pts]
    basis = []
    for v, w in zip(pts, weights):
        # a reducible element has an irreducible summand of weight <= w/2,
        # and irreducible elements always lie inside the enumeration box
        reducible = False
        for a, wa in zip(pts, weights):
            if 2 * wa > w:
                break
            if c.contains(v - a) and not (v - a).is_zero:
                reducible = True
                break
        if not reducible:
            basis.append(v)
    return sorted(basis)


def box_lattice_points(p: LatticePolytope) -> list[tuple[int, ...]]:
    """Lattice points of a polytope of dimension <= 2 by scanning its bounding
    box with ``contains``, in the box's (x, y) order."""
    rank = p.ambient_rank if p.dimension < 2 else 2
    los = [min(v[i] for v in p.vertices) for i in range(rank)]
    his = [max(v[i] for v in p.vertices) for i in range(rank)]
    return [q for q in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))) if p.contains(q)]


def box_slab_points(c: Cone) -> list[LatticeVector]:
    """Nonzero lattice points of a Q-Gorenstein cone with grading at most
    one, primitive or not, by scanning with ``contains`` the bounding box of
    the origin and the generators, whose convex hull holds the slab."""
    m = c.grading[0]
    rank = c.lattice_rank
    los = [min(0, *(g.coords[i] for g in c.generators)) for i in range(rank)]
    his = [max(0, *(g.coords[i] for g in c.generators)) for i in range(rank)]
    out = []
    for p in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        v = LatticeVector(p)
        if not v.is_zero and c.contains(v) and m.pair(v) <= 1:
            out.append(v)
    return out


def box_interior_points(p: LatticePolytope) -> list[tuple[int, ...]]:
    """Interior lattice points of a polygon: the bounding-box points strictly
    left of every counterclockwise edge (none below dimension 2)."""
    edges = p.edges()
    return [
        q for q in box_lattice_points(p)
        if edges and all((b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0]) > 0 for a, b in edges)
    ]


@functools.lru_cache(maxsize=None)
def scanned_facts(vertices) -> tuple[list, list, list, dict]:
    """Lattice, interior and edge-interior points of the polygon with these
    canonical vertices, from bounding-box scans of a fresh copy, and its tag
    built from them and from the doubled area of a fan of triangles from the
    first vertex (no Pick count)."""
    cell = LatticePolytope(vertices)
    points = box_lattice_points(cell)
    interior = box_interior_points(cell)
    edge = [q for q in points if q not in interior and q not in vertices]
    v = vertices
    area2 = sum(_turn(v[0], v[i], v[i + 1]) for i in range(1, len(v) - 1))
    parallelogram = len(v) == 4 and all(v[0][i] + v[2][i] == v[1][i] + v[3][i] for i in range(2))
    tag = {
        "interior_points": len(interior),
        "edge_interior_points": len(edge),
        "basic": area2 == 1,
        "unit_parallelogram": parallelogram and area2 == 2 and len(points) == 4,
    }
    return points, interior, edge, tag


def set_census(cells) -> dict:
    """The census of a complex's cells from box scans of each, the points
    inside cell edges counted as one set."""
    tags = [scanned_facts(c.vertices)[3] for c in cells]
    return {
        "cells": len(cells),
        "cells_with_interior_points": sum(1 for t in tags if t["interior_points"]),
        "interior_points": sum(t["interior_points"] for t in tags),
        "edge_interior_points": len({q for c in cells for q in scanned_facts(c.vertices)[2]}),
        "basic_cells": sum(1 for t in tags if t["basic"]),
        "unit_parallelograms": sum(1 for t in tags if t["unit_parallelogram"]),
    }


def rebuilt_final_fan(trace) -> tuple[Cone, ...]:
    """The maximal cones of ``resolve``'s fan rebuilt from its trace: each
    piece's completion-0 generators mapped into the input lattice and put
    through ``simplicial_cone``, in the fan's order."""
    rebuilt = [
        simplicial_cone([matrix.apply(g) for g in mc.generators])
        for (_pc, matrix, _rounds, _cert), (fan0, _psi) in zip(trace.pieces, trace.first_completions)
        for mc in fan0.maximal_cones
    ]
    return tuple(sorted(rebuilt, key=lambda c: tuple(g.coords for g in c.generators)))


def _primitive_tuple(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*vec)
    return tuple(c // g for c in vec) if g > 1 else vec


def reference_extreme_rays(constraints, dim: int):
    """``extreme_rays`` as it was first written: each ray's incidence is a
    frozenset of constraint indices, recomputed with dot products at every
    constraint, adjacency is Fukuda's combinatorial test on those sets, and
    the final minimal-face test takes ranks over the rationals."""
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    processed: list[tuple[int, ...]] = []

    def dotv(a, x):
        return sum(p * q for p, q in zip(a, x))

    for a in constraints:
        if all(c == 0 for c in a):
            continue
        lvals = [dotv(a, l) for l in lineality]
        if any(v != 0 for v in lvals):
            i0 = next(i for i, v in enumerate(lvals) if v != 0)
            l0, v0 = lineality[i0], lvals[i0]
            if v0 < 0:
                l0 = tuple(-c for c in l0)
                v0 = -v0
            new_lin = [
                _primitive_tuple(tuple(v0 * c - v * d for c, d in zip(l, l0)))
                for i, (l, v) in enumerate(zip(lineality, lvals)) if i != i0
            ]
            rays = [_primitive_tuple(tuple(v0 * c - dotv(a, r) * d for c, d in zip(r, l0))) for r in rays]
            rays = [r for r in rays if any(c != 0 for c in r)]
            rays.append(l0)
            lineality = new_lin
            processed.append(a)
            continue
        vals = [dotv(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(a)
            continue
        active = {r: frozenset(i for i, c in enumerate(processed) if dotv(c, r) == 0) for r in rays}
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
        neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
        for rp, vp in pos:
            for rn, vn in neg:
                common = active[rp] & active[rn]
                adjacent = len(rays) <= 2 or not any(
                    r3 is not rp and r3 is not rn and common <= active[r3] for r3 in rays
                )
                if adjacent:
                    comb = tuple(vp * c - vn * d for c, d in zip(rn, rp))
                    if any(c != 0 for c in comb):
                        new_rays.append(_primitive_tuple(comb))
        processed.append(a)
        rays = list(dict.fromkeys(new_rays))

    lin_dim = len(lineality)
    final = [r for r in rays if fraction_rank([c for c in processed if dotv(c, r) == 0]) == dim - lin_dim - 1]
    out = []
    for r in sorted(final):
        if r not in out and not any(r == l or r == tuple(-c for c in l) for l in lineality):
            out.append(r)
    return out, sorted(lineality)


def reference_make_cone(vs: list[LatticeVector]) -> tuple[Cone, int]:
    """``make_cone`` as it was first written, with its dimension: the
    reference double description, and a generator kept when the facets it
    lies on and the equations have rank one less than the lattice's."""
    if not vs:
        raise ConeError("empty generator list")
    rank = vs[0].rank
    gens = []
    for v in vs:
        if v.rank != rank:
            raise ConeError("mixed ambient ranks in generator list")
        if not v.is_zero and _primitive_tuple(v.coords) not in gens:
            gens.append(_primitive_tuple(v.coords))
    if not gens:
        raise ConeError("cone generated by zero vectors only")
    ineqs, eqs = reference_extreme_rays(gens, rank)
    if fraction_rank(ineqs + eqs) < rank:
        raise ConeError(f"not pointed: pos{sorted(gens)} contains a line")
    extreme = [
        g for g in gens
        if fraction_rank([m for m in ineqs if sum(a * b for a, b in zip(m, g)) == 0] + eqs) == rank - 1
    ]
    cone = Cone(
        lattice_rank=rank,
        generators=tuple(LatticeVector(g) for g in sorted(extreme)),
        inequalities=tuple(Covector(m) for m in sorted(ineqs)),
        equations=tuple(Covector(m) for m in sorted(eqs)),
    )
    return cone, rank - len(eqs)


def _leibniz_det(rows) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def brute_force_facets(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Sorted primitive inward facet normals of the full-dimensional pointed
    cone on ``gens`` (rank 3 or 4): every hyperplane through rank - 1
    linearly independent generators, its normal the signed maximal minors,
    that leaves all generators on one side."""
    rank = len(gens[0])
    normals = set()
    for sub in itertools.combinations(gens, rank - 1):
        n = tuple((-1) ** i * _leibniz_det([g[:i] + g[i + 1:] for g in sub]) for i in range(rank))
        if not any(n):
            continue
        n = _primitive_tuple(n)
        vals = [sum(a * b for a, b in zip(n, g)) for g in gens]
        if min(vals) >= 0:
            normals.add(n)
        elif max(vals) <= 0:
            normals.add(tuple(-c for c in n))
    return sorted(normals)


def random_pointed_cone(rng: random.Random, rank: int, coord_bound: int = 6, max_gens: int = 4):
    """A random pointed cone, or None when the draw contains a line."""
    k = rng.randint(2, max_gens)
    vs = [
        LatticeVector(tuple(rng.randint(-coord_bound, coord_bound) for _ in range(rank)))
        for _ in range(k)
    ]
    try:
        c = make_cone(vs)
    except (ConeError, ValueError):
        return None
    return c


def random_independent_generators(rng: random.Random, rank: int) -> list[LatticeVector]:
    """``rank`` linearly independent vectors of rank ``rank``.

    About 30% are unimodular bases (elementary row operations on the
    identity and a random sign, so det = +-1); the rest have entries in
    [-5, 5].  Each vector is scaled by 2 with probability 1/4, so some
    generators are not primitive.
    """
    while True:
        if rng.random() < 0.3:
            rows = [list(r) for r in IntMatrix.identity(rank).rows]
            for _ in range(6):
                i, j = rng.sample(range(rank), 2)
                k = rng.randint(-2, 2)
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            sign = rng.choice((1, -1))
            rows[0] = [sign * x for x in rows[0]]
        else:
            rows = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(rank)]
        if IntMatrix(tuple(tuple(r) for r in rows)).det() != 0:
            scales = [rng.choice((1, 1, 1, 2)) for _ in rows]
            return [LatticeVector(tuple(k * x for x in r)) for k, r in zip(scales, rows)]


def random_polygon(rng: random.Random, bound: int = 4, max_pts: int = 6):
    """A random 2D lattice polygon with vertices in [-bound, bound]^2, or None."""
    pts = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(rng.randint(3, max_pts))]
    hull = convex_hull_2d(pts)
    if len(hull) < 3:
        return None
    return LatticePolytope.from_points(hull)


def gorenstein_cone_over(polygon: LatticePolytope) -> Cone:
    return make_cone([LatticeVector((p[0], p[1], 1)) for p in polygon.vertices])


def _order_function_subdivision(cell: LatticePolytope):
    """Linearity domains on the cell of the order function of the maximal ideal.

    The order function is the minimum of the pairings against the nonzero
    dual Hilbert basis; its domains are computed exactly as subcones and
    must be crepant (all rays at height one), which is asserted.

    Returns (subcells, central_cell_points, new_rays).
    """
    cone = gorenstein_cone_over(cell)
    dual_members = hilbert_basis(dual_cone(cone)).members
    members = [h for h in dual_members if h.coords != (0, 0, 1)]
    if len(members) == len(dual_members):
        raise Resolve3dError("grading functional missing from dual Hilbert basis")
    base_constraints = [
        tuple(int(x) for x in m.primitive().coords) for m in cone.inequalities
    ]
    all_members = list(dual_members)
    subcells = []
    central: list[Point] = []
    for h in all_members:
        constraints = list(base_constraints)
        for other in all_members:
            if other != h:
                constraints.append((other - h).coords)
        rays, lin = extreme_rays(constraints, 3)
        if lin:
            raise Resolve3dError("unexpected lineality in order-function domain")
        pts = []
        for r in rays:
            if r[2] != 1:
                raise Resolve3dError(
                    f"crepancy violated: order-function domain ray {r} off height one"
                )
            pts.append((r[0], r[1]))
        if len(pts) >= 3:
            poly = LatticePolytope.from_points(pts)
            if poly.dimension == 2:
                subcells.append(poly)
        if h.coords == (0, 0, 1):
            central = pts
    old = set(cell.vertices)
    new_rays = sorted(
        {p for sc in subcells for p in sc.vertices if p not in old}
    )
    return subcells, central, new_rays


def dd_envelope_subdivision(cell: LatticePolytope, lifted) -> list[LatticePolytope]:
    """Cells of the regular subdivision lifting ``lifted`` to 1, the rest to 0.

    The linear pieces of the upper envelope are found as vertices of the
    polyhedron of affine functions dominating the lifted points, computed
    through a homogenized double-description pass.
    """
    lifted = set(lifted)
    points = [tuple(p) for p in cell.lattice_points()]
    heights = {p: int(p in lifted) for p in points}
    constraints = [(p[0], p[1], 1, -heights[p]) for p in points]
    constraints.append((0, 0, 0, 1))
    rays, _lin = extreme_rays(constraints, 4)
    cells = []
    for r in rays:
        if r[3] <= 0:
            continue
        a1, a2, c0, t = r
        tight = [
            p
            for p in points
            if a1 * p[0] + a2 * p[1] + c0 == heights[p] * t
        ]
        if len(tight) >= 3:
            poly = LatticePolytope.from_points(tight)
            if poly.dimension == 2 and set(tight) == set(poly.lattice_points()):
                cells.append(poly)
    total = sum(c.area2() for c in cells)
    if total != cell.area2():
        raise Resolve3dError("envelope subdivision does not tile the cell")
    return cells


def dd_floor_facets(c: Cone) -> list[list[LatticeVector]]:
    """Hilbert points on each compact facet of conv((c ∩ N) - {0}), by a
    double description of the homogenized Hilbert basis.

    The hull equals conv(Hilbert basis) + c; the facets of the cone over
    {1} x basis and {0} x generators with normal (c0, m), c0 < 0, are the
    compact ones, listed in the order of their primitive normals.
    """
    members = parallelepiped_hilbert_basis(c)
    homog = [(1, *h.coords) for h in members] + [(0, *g.coords) for g in c.generators]
    normals, lin = extreme_rays(homog, c.lattice_rank + 1)
    if lin:
        raise ConeError("unexpected lineality in hull homogenization")
    out = []
    for c0, *m in normals:
        if c0 >= 0:
            continue
        if any(sum(a * b for a, b in zip(m, g.coords)) == 0 for g in c.generators):
            raise ConeError("floor facet with recession direction; cone degenerate")
        out.append(sorted(h for h in members if c0 + sum(a * b for a, b in zip(m, h.coords)) == 0))
    return out


def floor_polygon(tight: list[LatticeVector]) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """Primitive normal n, level k and vertices in cyclic order of one floor
    facet of a rank-2 or rank-3 cone, re-derived from its sorted lattice
    points alone: n from the first cross product that does not vanish, the
    vertices from the planar hull, or the first and last point in rank 2."""
    pts = [h.coords for h in tight]
    a = pts[0]
    if len(a) == 2:
        n = _gcd_normalize((pts[-1][1] - a[1], a[0] - pts[-1][0]))
        verts = [a, pts[-1]]
    else:
        normals = (_cross(_sub(p, a), _sub(q, a)) for p, q in itertools.combinations(pts[1:], 2))
        n = _gcd_normalize(next(v for v in normals if any(v)))
        verts = _polygon(n, pts)
    if _dot(n, a) < 0:
        n = tuple(-x for x in n)
    return n, _dot(n, a), verts


def pulling_triangulation(c: Cone, apex: int = 0) -> list[tuple[LatticeVector, ...]]:
    """Pulling triangulation of a pointed cone from its generator number
    ``apex``: joined to each facet that misses it, in the order of the
    facet normals, a facet on more than dim - 1 rays pulled in turn from its
    first ray.  The default is the first-ray rule in every rank, which the
    oracles here use whatever apex ``hilbert._triangulate`` picks."""
    gens = c.generators
    if len(gens) == c.dim:
        return [gens]
    a = gens[apex]
    simplices = []
    for m in c.inequalities:
        if m.pair(a) != 0:
            facet = tuple(g for g in gens if m.pair(g) == 0)
            parts = [facet] if len(facet) == c.dim - 1 else pulling_triangulation(make_cone(list(facet)))
            simplices += [(a, *p) for p in parts]
    return simplices


def parallelepiped_hilbert_basis(c: Cone) -> list[LatticeVector]:
    """Hilbert basis of a pointed full-dimensional cone by the coset walk:
    the generators and the lattice points of each simplex's half-open
    parallelepiped over the first-ray pulling triangulation, then, in degree
    order, those whose facet values dominate no kept point's; independent of
    the continued-fraction chain and of the apex ``hilbert_basis`` pulls from."""
    candidates = {g.coords for g in c.generators}
    for simplex in pulling_triangulation(c):
        candidates.update(p for p in _parallelepiped_points(simplex) if any(p))
    normals = [m.coords for m in c.inequalities]
    valued = [(tuple(_dot(m, p) for m in normals), p) for p in candidates]
    kept: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for vals, p in sorted(valued, key=lambda vp: (sum(vp[0]), vp[1])):
        if not any(all(a >= b for a, b in zip(vals, h)) for h, _ in kept):
            kept.append((vals, p))
    return sorted(LatticeVector(p) for _, p in kept)


def angular_order(points: list) -> list:
    """Planar vectors in counterclockwise angular order; a total order when
    they lie in a pointed cone (opening below pi)."""
    return sorted(points, key=functools.cmp_to_key(lambda u, v: _turn((0, 0), tuple(v), tuple(u))))


def angular_chain_floor(c: Cone) -> list[list[LatticeVector]]:
    """Lattice points on each compact edge of a rank-2 hull, by the angular
    chain of the parallelepiped Hilbert basis: consecutive members span an
    edge, and a collinear run shares one (normal, level); listed in (-k, n)
    order."""
    chain = angular_order(parallelepiped_hilbert_basis(c))
    edges: dict[tuple[tuple[int, int], int], set] = {}
    for a, b in zip(chain, chain[1:]):
        n = _gcd_normalize((b.coords[1] - a.coords[1], a.coords[0] - b.coords[0]))
        if _dot(n, a.coords) < 0:
            n = (-n[0], -n[1])
        edges.setdefault((n, _dot(n, a.coords)), set()).update((a, b))
    return [sorted(edges[key]) for key in sorted(edges, key=lambda nk: (-nk[1], nk[0]))]


def hilbert_chain_resolution(c: Cone) -> tuple[Fan, list[tuple[LatticeVector, int]]]:
    """Minimal resolution of a rank-2 cone from its parallelepiped Hilbert
    basis in angular order: the validated fan of consecutive pairs, and each
    b_i the quotient of the three-term relation u_{i-1} + u_{i+1} = b_i * u_i,
    read coordinatewise."""
    chain = angular_order(parallelepiped_hilbert_basis(c))
    fan = make_fan([simplicial_cone([u, v]) for u, v in zip(chain, chain[1:])])
    exceptional = []
    for u_prev, u, u_next in zip(chain, chain[1:], chain[2:]):
        s = u_prev + u_next
        b = next(x // y for x, y in zip(s.coords, u.coords) if y != 0)
        assert s == b * u
        exceptional.append((u, -b))
    return fan, exceptional


def random_rank3_cones(seed: int, bound: int, count: int) -> list[Cone]:
    """Pointed full-dimensional cones on 3 to 5 random vectors in
    [-bound, bound]^3, drawn as the benchmark draws its random cones; seed
    27182818 with bound 4 and count 40 gives its resolve-small cones."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        vs = [tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(rng.randint(3, 5))]
        try:
            cone = make_cone([LatticeVector(v) for v in vs])
        except (ConeError, ValueError):
            continue
        if cone.is_full_dimensional:
            out.append(cone)
    return out


def count_calls(monkeypatch, fn) -> list:
    """Count calls to ``fn`` through every toresolve module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "toresolve" or name.startswith("toresolve."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


def c3_hulls(count: int = 50) -> list[list[Point]]:
    """The criterion-3 corpus: convex hulls of random points in [-4, 4]^2, seed 31415926."""
    rng = random.Random(31415926)
    hulls = []
    while len(hulls) < count:
        hull = convex_hull_2d([(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 6))])
        if len(hull) >= 3:
            hulls.append(hull)
    return hulls


def _affine_value(tri, h: dict[Point, Fraction], q: Point) -> Fraction:
    """Value at q of the affine function interpolating h on the triangle."""
    (ax, ay), (bx, by), (cx, cy) = tri
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    l_b = Fraction((q[0] - ax) * (cy - ay) - (cx - ax) * (q[1] - ay), det)
    l_c = Fraction((bx - ax) * (q[1] - ay) - (q[0] - ax) * (by - ay), det)
    l_a = 1 - l_b - l_c
    return l_a * h[tri[0]] + l_b * h[tri[1]] + l_c * h[tri[2]]


def fraction_composite_heights(pc: PolygonComplex, chi: dict[Point, int], tris):
    """Completion heights and the exponent t found by halving eps = 2^-t.

    Sums the per-round 0/1 height maps (1 on the points that ``pc.lifted``
    lists for the round) and chi over every lattice point of
    the polygon with weights eps^(r+1), checks every wall by interpolating on
    one triangle at the far vertex of the other, and clears denominators.
    """
    points = [tuple(p) for p in pc.polygon.lattice_points()]
    layers = [dict.fromkeys(r, 1) for r in pc.lifted] + [chi]
    tris_of_edge: dict[tuple[Point, Point], list] = {}
    for t in tris:
        for k in range(3):
            tris_of_edge.setdefault(tuple(sorted((t[k], t[(k + 1) % 3]))), []).append(t)
    walls = []  # (one triangle, the far vertex of the other)
    for edge, pair in tris_of_edge.items():
        if len(pair) == 2:
            t1, t2 = pair
            walls.append((t1, next(p for p in t2 if p not in edge)))
    eps = Fraction(1)
    for t in range(64):
        h = {
            p: sum(eps ** (i + 1) * Fraction(layer.get(p, 0)) for i, layer in enumerate(layers))
            for p in points
        }
        if all(_affine_value(t1, h, d) - h[d] > 0 for t1, d in walls):
            denom = math.lcm(*(v.denominator for v in h.values())) if h else 1
            return {p: int(v * denom) for p, v in h.items()}, t
        eps /= 2
    raise Resolve3dError("could not certify projectivity: fold margins kept failing")


def shifted_composite_heights(pc: PolygonComplex, chi: dict[Point, int], tris):
    """Completion heights and the exponent t of the integer weight search
    with no short cut: every wall of ``tris`` folded afresh, round by round,
    and each t from 0 tried with weights 2^(t(L-r)) for round r of L and 1
    for chi, the heights divided by their common power of two."""
    point_rounds: dict[Point, list[int]] = {}
    for r, points in enumerate(pc.lifted):
        for p in points:
            point_rounds.setdefault(p, []).append(r)
    folds = []
    for wall in _walls(tris, {}):
        terms, by_round = _wall_terms(wall), {}
        for p, k in terms:
            for r in point_rounds.get(p, ()):
                by_round[r] = by_round.get(r, 0) + k
        folds.append((by_round, sum(k * chi.get(p, 0) for p, k in terms)))
    top = len(pc.lifted)
    for t in range(64):
        if all(sum(f << (t * (top - r)) for r, f in by_round.items()) + chi_fold > 0 for by_round, chi_fold in folds):
            heights = {
                p: sum(1 << (t * (top - r)) for r in point_rounds.get(p, ())) + chi.get(p, 0)
                for p in sorted({p for tri in tris for p in tri})
            }
            g = math.gcd(1 << (t * (top + 1)), *heights.values())
            return {p: v // g for p, v in heights.items()}, t
    raise Resolve3dError("could not certify projectivity: fold margins kept failing")


def fraction_fourier_motzkin(ineqs: list[tuple[dict[int, int], int]], variables: list[int]):
    """Solve sum(coef_v * x_v) >= const systems over the rationals; None when
    infeasible.  Scans the whole system once per variable, in the order of
    ``variables``, divides every bound by its coefficient, and back-substitutes
    the midpoint of the tightest bounds, the one tight bound, or 0."""
    system = [({v: Fraction(c) for v, c in lhs.items() if c}, Fraction(rhs)) for lhs, rhs in ineqs]
    assignments: list[tuple[int, list, list]] = []
    for var in variables:
        with_var = [(l, r) for l, r in system if l.get(var)]
        rest = [(l, r) for l, r in system if not l.get(var)]
        lowers, uppers = [], []  # x >= expr, x <= expr as (coeffs, const)
        for l, r in with_var:
            c = l[var]
            others = {v: -cc / c for v, cc in l.items() if v != var and cc}
            bound = (others, r / c)
            (lowers if c > 0 else uppers).append(bound)
        for lo_c, lo_r in lowers:
            for up_c, up_r in uppers:
                comb = dict(up_c)
                for v, cc in lo_c.items():
                    comb[v] = comb.get(v, Fraction(0)) - cc
                comb = {v: cc for v, cc in comb.items() if cc}
                # upper bound must be >= lower bound: up - lo >= lo_r - up_r
                rest.append((comb, lo_r - up_r))
        assignments.append((var, lowers, uppers))
        system = rest
    for l, r in system:
        if not l and r > 0:
            return None
    values: dict[int, Fraction] = {}

    def ev(coeffs, const):
        return sum(c * values[v] for v, c in coeffs.items()) + const

    for var, lowers, uppers in reversed(assignments):
        lo = max((ev(c, r) for c, r in lowers), default=None)
        up = min((ev(c, r) for c, r in uppers), default=None)
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


def three_pass_certificate(tris, heights: dict[Point, int]):
    """Completion fan and support function of the triangles lifted to height
    one, each triangle through ``simplicial_cone``, then ``is_basic``, then
    ``with_linear_representatives``."""
    cones = []
    for t in tris:
        cone = simplicial_cone([LatticeVector((p[0], p[1], 1)) for p in t])
        if not is_basic(cone):
            raise Resolve3dError(f"completion triangle {t} is not basic")
        cones.append(cone)
    fan = Fan(
        lattice_rank=3,
        maximal_cones=tuple(sorted(cones, key=lambda c: tuple(g.coords for g in c.generators))),
    )
    ray_values = {r.coords: heights[r.coords[:2]] for r in fan.rays()}
    return fan, with_linear_representatives(SupportFunction(fan=fan, ray_values=ray_values))


def membership_first_convexity(psi: SupportFunction) -> bool:
    """Strict upper convexity, skipping each cone's own rays by membership
    before any value is compared."""
    for i, cone in enumerate(psi.fan.maximal_cones):
        m = psi.linear_reps[i]
        for r in cone.generators:
            assert m.pair(r) == psi.value(r)
        for v in psi.fan.rays():
            if cone.contains(v):
                continue
            if m.pair(v) <= psi.value(v):
                return False
    return True


def sequential_fixed_point_phase(polygon: LatticePolytope, rng: random.Random) -> PolygonComplex:
    """Blow up one randomly chosen cell with interior points at a time, until none is left."""
    pc = PolygonComplex.initial(polygon)
    while True:
        eligible = [i for i, c in enumerate(pc.cells) if c.interior_points()]
        if not eligible:
            return pc
        pc = blowup_fixed_point(pc, rng.choice(eligible))


def _gauss_jordan(a: list[list[Fraction]], n: int) -> list[int]:
    """Reduce the rational rows a in place on their first n columns; the
    pivot columns, whose rows come first."""
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots


def fraction_rank(rows) -> int:
    """Rank by Gauss-Jordan elimination over the rationals."""
    if not rows:
        return 0
    a = [[Fraction(x) for x in r] for r in rows]
    return len(_gauss_jordan(a, len(a[0])))


def gauss_jordan_solve(rows: list[LatticeVector], rhs) -> Covector | None:
    """Solve <x, row_i> = rhs_i by Gauss-Jordan elimination over the
    rationals, free variables set to zero; None when inconsistent."""
    if not rows:
        raise LatticeError("empty system")
    n = rows[0].rank
    aug = [[Fraction(c) for c in r.coords] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = _gauss_jordan(aug, n)
    if any(aug[i][n] != 0 for i in range(len(pivots), len(aug))):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return Covector(tuple(x))


def unimodular_2x2(bound: int = 5):
    """All unimodular 2x2 integer matrices with entries in [-bound, bound]."""
    mats = []
    rng_range = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng_range, repeat=4):
        if a * d - b * c in (1, -1):
            mats.append(((a, b), (c, d)))
    return mats


_UNIMODULAR_CACHE: dict[int, list] = {}


def unimodular_from_ops(ops, flip: bool) -> IntMatrix:
    """The 3x3 identity after row additions rows[i] += k * rows[j], one per
    ((i, j, _), k) in ``ops``, with row 0 negated when ``flip``."""
    rows = [list(r) for r in IntMatrix.identity(3).rows]
    for (i, j, _), k in ops:
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
    if flip:
        rows[0] = [-x for x in rows[0]]
    u = IntMatrix(tuple(tuple(r) for r in rows))
    assert abs(u.det()) == 1
    return u


def nakajima_construction_oracle(p: LatticePolytope, bound: int = 5) -> bool:
    """Literal stacked-construction search composed with bounded unimodular maps.

    For each unimodular map with entries in [-bound, bound], the image of the
    polytope (suitably translated) is tested verbatim against the inductive
    construction 0 <= x <= c, 0 <= y <= slope*x + h with integer data.
    """
    if p.dimension < 2:
        return True
    if bound not in _UNIMODULAR_CACHE:
        _UNIMODULAR_CACHE[bound] = unimodular_2x2(bound)
    verts = list(p.vertices)
    for (a, b), (c, d) in _UNIMODULAR_CACHE[bound]:
        imgs = [(a * x + b * y, c * x + d * y) for x, y in verts]
        for corner in imgs:
            moved = sorted((x - corner[0], y - corner[1]) for x, y in imgs)
            if _is_literal_stacked(moved):
                return True
    return False


def case_analysis_nakajima(p: LatticePolytope) -> bool:
    """Stackedness of a polygon of at most four vertices by anchoring each
    edge, in both orientations, as the base of the shape
    0 <= x <= c, 0 <= y <= slope*x + h0: the base's inward primitive normal
    is the height, a complement of its primitive direction the abscissa, and
    an integer shear must make the sides vertical.  Pentagons and larger
    polygons are refused."""
    verts = list(p.vertices)
    n = len(verts)
    if n > 4:
        return False
    for i in range(n):
        for flip in (False, True):
            a, b = verts[i], verts[(i + 1) % n]
            before, after = verts[(i - 1) % n], verts[(i + 2) % n]
            if flip:
                a, b = b, a
                before, after = after, before
            d = (b[0] - a[0], b[1] - a[1])
            c_len = math.gcd(*d)
            dp = (d[0] // c_len, d[1] // c_len)
            normal = (dp[1], -dp[0]) if flip else (-dp[1], dp[0])
            height = lambda w: normal[0] * (w[0] - a[0]) + normal[1] * (w[1] - a[1])
            _g, xi = extended_gcd_vector(dp)
            xcoord = lambda w: xi[0] * (w[0] - a[0]) + xi[1] * (w[1] - a[1])
            if n == 3:
                w = before if before != b else after
                yw, xw = height(w), xcoord(w)
                if yw > 0 and yw % c_len == 0 and (xw % yw == 0 or (c_len - xw) % yw == 0):
                    return True
            else:
                ya, xa = height(before), xcoord(before)
                yb, xb = height(after), xcoord(after)
                if ya <= 0 or yb <= 0 or xa % ya != 0:
                    continue
                if xb + (-xa // ya) * yb == c_len and (yb - ya) % c_len == 0:
                    return True
    return False


def _is_literal_stacked(verts) -> bool:
    if any(y < 0 for _, y in verts):
        return False
    bottom = sorted(v for v in verts if v[1] == 0)
    if len(bottom) != 2 or bottom[0] != (0, 0):
        return False
    c = bottom[1][0]
    if c <= 0:
        return False
    top = [v for v in verts if v[1] > 0]
    if len(top) + 2 != len(verts) or len(top) not in (1, 2):
        return False
    if len(top) == 1:
        (x, h) = top[0]
        return x in (0, c) and h % c == 0
    (x0, h0), (x1, h1) = sorted(top)
    return x0 == 0 and x1 == c and (h1 - h0) % c == 0


@pytest.fixture
def rng():
    return random.Random(987654321)
