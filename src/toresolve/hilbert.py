"""Hilbert bases of cone semigroups, embedding dimension, binomial relations."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cones import Cone, ConeError, _cross, _gcd_normalize, dual_cone, make_cone
from .lattice import (
    IntMatrix,
    LatticeVector,
    _made,
    adjugate,
    convex_hull_2d,
    extended_gcd_vector,
    integer_kernel,
    rational_solve,
    smith_normal_form,
)


@dataclass(frozen=True)
class HilbertBasis:
    """The unique irreducible generating system of the semigroup cone ∩ N."""

    cone: Cone
    members: tuple[LatticeVector, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _triangulate(c: Cone) -> list[tuple[LatticeVector, ...]]:
    """Pulling triangulation of a pointed cone into simplicial cones.

    The apex is joined to a triangulation of each facet that misses it: a
    facet on dim - 1 rays is a simplex already, any other is triangulated in
    turn as the cone on its rays.  In dimension 3 every facet is a simplex.

    The coset walks cost the simplices' determinant sum, so a
    full-dimensional rank-3 cone is pulled from the generator a with the
    least sum_F <m_F, a> w_F over its facets F = pos(g, h), m_F the inward
    primitive normal and w_F = gcd(g x h), which is |det(a, g, h)| summed
    over the facets a misses (Normaliz too keeps this sum small; Bruns-Ichim,
    J. Algebra 2010).  Ties go to the first generator, so a cone on coplanar
    rays, where every apex gives the same sum, keeps its simplices; other
    ranks pull from the first ray.  The Hilbert basis and the hull floor are
    unique and the walks find them over any triangulation on the generators
    that covers the cone, so the apex changes no output.
    """
    gens = c.generators
    if len(gens) == c.dim:
        return [gens]
    # pairings[f][j] = <m_f, g_j>, zero exactly when g_j lies on facet f
    coords = [g.coords for g in gens]
    pairings = [[sum(map(operator.mul, m.coords, g)) for g in coords] for m in c.inequalities]
    facets = [tuple(g for g, v in zip(gens, row) if not v) for row in pairings]
    apex = 0
    if c.lattice_rank == 3 and c.is_full_dimensional:
        widths = [math.gcd(*_cross(g.coords, h.coords)) for g, h in facets]
        costs = [sum(map(operator.mul, column, widths)) for column in zip(*pairings)]
        apex = costs.index(min(costs))
    simplices = []
    for row, facet in zip(pairings, facets):
        if row[apex] != 0:
            parts = [facet] if len(facet) == c.dim - 1 else _triangulate(make_cone(list(facet)))
            simplices += [(gens[apex], *p) for p in parts]
    return simplices


# the most cosets a parallelepiped walk takes on: a larger group is refused
MAX_COSETS = 10**7


def _cosets(gens: tuple[LatticeVector, ...]) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Smith-form set-up shared by the parallelepiped walks over Z^d modulo
    the sublattice G Z^d, G the matrix with the generators as columns.

    Returns the Smith diagonal s of S = U G V, U and V: the cosets are those
    of U^-1 a, 0 <= a_i < |s_i|, det-many in all.  Refuses a group of more
    than ``MAX_COSETS`` elements, before any coset is walked.
    """
    s, u, v = smith_normal_form(IntMatrix(tuple(zip(*(g.coords for g in gens)))))
    diag = [s.rows[i][i] for i in range(len(gens))]
    if any(x == 0 for x in diag):
        raise ConeError("parallelepiped of dependent vectors")
    _check_budget(gens, math.prod(abs(x) for x in diag))
    return diag, u, v


def _check_budget(gens: tuple[LatticeVector, ...], count: int) -> None:
    """Refuse a parallelepiped of ``count`` > ``MAX_COSETS`` lattice points."""
    if count > MAX_COSETS:
        raise ConeError(
            f"the parallelepiped of the cone on {[g.coords for g in gens]} has {count} lattice points, "
            f"more than the {MAX_COSETS} that can be enumerated"
        )


def _parallelepiped_points(gens: tuple[LatticeVector, ...]) -> list[tuple[int, ...]]:
    """Lattice points of the half-open parallelepiped sum t_i g_i, t_i in [0,1).

    Enumerated via the Smith normal form: representatives of Z^d modulo the
    generator sublattice, shifted into the fundamental domain.  Exactly
    det-many points, including the origin; the last Smith factor is walked
    as a range, as in ``_lower_points``.
    """
    d = len(gens)
    diag, u, _v = _cosets(gens)
    u_inv = u.inverse_unimodular().rows
    det, adj_cols = adjugate(list(zip(*(g.coords for g in gens))))
    # exact inverse of the generator matrix, once
    inv_rows = [tuple(Fraction(x, det) for x in row) for row in zip(*adj_cols)]
    points = []
    for outer in itertools.product(*(range(abs(x)) for x in diag[:-1])):
        for last in range(abs(diag[-1])):
            a = (*outer, last)
            x0 = [sum(x * y for x, y in zip(row, a)) for row in u_inv]
            t = [sum(inv_rows[i][j] * x0[j] for j in range(d)) for i in range(d)]
            frac = [ti - math.floor(ti) for ti in t]
            x = tuple(
                int(sum(Fraction(g.coords[i]) * f for g, f in zip(gens, frac)))
                for i in range(d)
            )
            points.append(x)
    return points


def _lower_points(gens: tuple[LatticeVector, ...]) -> list[tuple[int, ...]]:
    """Primitive lattice points sum t_i g_i with every t_i in [0,1) and
    0 < sum t_i <= 1: the parallelepiped points on or under the plane
    through the generators, walked in integers by stride.

    For the coset of U^-1 a (see ``_cosets``), r = D t mod D, D = |det G|,
    is D times the fractional parts of t = G^-1 U^-1 a = V S^-1 a, and the
    point is x = G r / D.  So r = sum a_i rho_i mod D with rho_i = (D / s_i)
    V e_i, that is sign(det) adj(G) U^-1 e_i, and the walk over the product
    of the ranges of a steps r by rho_last along the last one.
    """
    diag, _u, v = _cosets(gens)
    size = math.prod(abs(x) for x in diag)
    *outer, last = [[size // s * x % size for x in col] for s, col in zip(diag, zip(*v.rows))]
    g_rows = list(zip(*(g.coords for g in gens)))
    points = []
    for a in itertools.product(*(range(abs(x)) for x in diag[:-1])):
        r = [sum(ai * rho[k] for ai, rho in zip(a, outer)) % size for k in range(len(gens))]
        for _ in range(abs(diag[-1])):
            if 0 < sum(r) <= size:
                x = tuple(_dot(row, r) // size for row in g_rows)
                if math.gcd(*x) == 1:
                    points.append(x)
            r = [(x + y) % size for x, y in zip(r, last)]
    return points


def _cone_lower_points(c: Cone) -> set[tuple[int, ...]]:
    """The primitive points sum t_i g_i with 0 < sum t_i <= 1 in some simplex
    of the pulling triangulation of a pointed full-dimensional cone: its
    generators (one t_i is 1) and each simplex's ``_lower_points``.  The
    rank-3 hull floor is found over them and classify reads its grading slab
    off them; a simplex too large to walk raises ``ConeError``.

    A rank-3 cone is pulled from the apex with the least determinant sum
    (see ``_triangulate``).  The set depends on the triangulation, what is
    read off it does not: the floor is the same over any triangulation on
    the generators that covers the cone (see ``_floor_3d``), and on the
    slab's coplanar rays every apex ties and the first ray is kept."""
    points = {g.coords for g in c.generators}
    for simplex in _triangulate(c):
        points.update(_lower_points(simplex))
    return points


def _to_sublattice(c: Cone):
    """Coordinates of a low-dimensional pointed cone inside its span lattice.

    Returns (cone in Z^d, embedding matrix B with columns the basis of N_c).
    """
    ann = integer_kernel(IntMatrix.from_vectors(list(c.generators)))
    basis = integer_kernel(IntMatrix.from_vectors(ann))
    b_cols = IntMatrix(tuple(zip(*(v.coords for v in basis))))
    small_gens = [_solve_columns(b_cols, g) for g in c.generators]
    return make_cone(small_gens), b_cols


def _solve_columns(b_cols: IntMatrix, g: LatticeVector) -> LatticeVector:
    # solve B * x = g: each row of B pairs with the coordinate vector x
    sol = rational_solve([LatticeVector(r) for r in b_cols.rows], list(g.coords))
    if sol is None or not sol.is_integral:
        raise ConeError("generator outside the sublattice")
    return sol.integral_vector()


def _hj_terms(p: int, q: int) -> tuple[int, ...]:
    """Terms b_i >= 2 of the Hirzebruch-Jung continued fraction
    p/q = b_1 - 1/(b_2 - 1/(...)), for coprime 0 < q < p; none for q = 0."""
    terms = []
    while q > 0:
        t = -(-p // q)  # ceiling
        terms.append(t)
        p, q = q, t * q - p
    return tuple(terms)


def hilbert_chain(c: Cone) -> tuple[tuple[LatticeVector, ...], tuple[int, ...]]:
    """The Hilbert basis of a pointed full-dimensional rank-2 cone in
    counterclockwise order, u_0 = a, ..., u_{r+1} = b, and the terms
    b_1, ..., b_r of the continued fraction n/q with u_{i-1} + u_{i+1} = b_i u_i
    (Oda, *Convex Bodies and Algebraic Geometry*, 1.6; Fulton, *Introduction
    to Toric Varieties*, 2.6).

    With n = det(a, b) > 0, the extended gcd (s, t) of a gives w = (-t, s)
    with det(a, w) = 1 and b = alpha a + n w, alpha = s b_0 + t b_1; then
    u_1 = w + ceil(alpha / n) a has b = n u_1 - q a with 0 <= q < n, and
    u_{i+1} = b_i u_i - u_{i-1} ends at b.  Consecutive members have det 1
    and every b_i >= 2, so the chain is the Hilbert basis, the lattice points
    of the hull floor and the rays of the minimal resolution.  A cone whose
    parallelepiped has more than ``MAX_COSETS`` points, |n| of them, is
    refused, as by the coset walks.
    """
    a, b = (g.coords for g in c.generators)
    n = a[0] * b[1] - a[1] * b[0]
    _check_budget(c.generators, abs(n))
    if n < 0:
        a, b, n = b, a, -n
    s, t = extended_gcd_vector(a)[1]
    alpha = s * b[0] + t * b[1]
    k = -(-alpha // n)
    terms = _hj_terms(n, n * k - alpha)
    chain = [a, (k * a[0] - t, k * a[1] + s)]
    for bi in terms:
        (x0, y0), (x1, y1) = chain[-2:]
        chain.append((bi * x1 - x0, bi * y1 - y0))
    return tuple(_made(LatticeVector, u) for u in chain), terms


def hilbert_basis(c: Cone) -> HilbertBasis:
    """Minimal generating system of c ∩ N for a strongly convex cone.

    A full-dimensional rank-2 cone takes the continued-fraction chain of
    ``hilbert_chain``; a cone of lower dimension is solved in its span
    lattice.  Otherwise: triangulate into simplicial subcones by pulling
    (in rank 3 from the apex with the least determinant sum, see
    ``_triangulate``), enumerate the lattice points of each fundamental
    half-open parallelepiped, add the ray generators, then, in degree order,
    keep the elements whose facet values dominate no kept element's.  Every
    Hilbert basis member is irreducible, so it lies in the half-open
    parallelepiped of any simplex containing it or is a generator: any
    triangulation on the generators that covers the cone gives the same
    basis, and the apex only sets how many cosets are walked, the sum of the
    simplices' |det|.  Uniqueness fails for non-pointed cones, which are
    rejected.
    """
    if not c.is_pointed:
        raise ConeError("Hilbert basis requires a strongly convex cone")
    if c.is_zero:
        return HilbertBasis(cone=c, members=())
    if c.dim < c.lattice_rank:
        small, b_cols = _to_sublattice(c)
        members = tuple(sorted(b_cols.apply(m) for m in hilbert_basis(small).members))
        return HilbertBasis(cone=c, members=members)
    if c.lattice_rank == 2:
        return HilbertBasis(cone=c, members=tuple(sorted(hilbert_chain(c)[0])))

    candidates: set[tuple[int, ...]] = {g.coords for g in c.generators}
    for simplex in _triangulate(c):
        for p in _parallelepiped_points(simplex):
            if any(x != 0 for x in p):
                candidates.add(p)

    # values on the primitive facet normals: v - h lies in c exactly when
    # v's values dominate h's entrywise, and their sum is a positive grading
    normals = [m.coords for m in c.inequalities]
    valued = [(tuple(sum(a * x for a, x in zip(m, p)) for m in normals), p) for p in candidates]
    accepted: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for vals, p in sorted(valued, key=lambda vp: (sum(vp[0]), vp[1])):
        if not any(all(a >= b for a, b in zip(vals, h)) for h, _ in accepted):
            accepted.append((vals, p))
    return HilbertBasis(cone=c, members=tuple(LatticeVector(p) for p in sorted(p for _, p in accepted)))


def embedding_dimension(c: Cone) -> int:
    """Cardinality of the Hilbert basis of the dual cone.

    This is the minimal number of generators of the maximal ideal at the
    distinguished point of the associated affine chart; requires the dual
    to be pointed, i.e. the cone to be full-dimensional.
    """
    if not c.is_pointed:
        raise ConeError("embedding dimension requires a pointed cone")
    if not c.is_full_dimensional:
        raise ConeError("embedding dimension requires a full-dimensional cone (dual not pointed)")
    return len(hilbert_basis(dual_cone(c)))


def floor_facets(c: Cone) -> list[tuple[tuple[int, ...], int, list[tuple[int, ...]], list[LatticeVector]]]:
    """The compact facets of conv((c ∩ N) - {0}) facing the origin, each as
    (n, k, vertices, points): its primitive normal n, its level k = <n, h>,
    its vertices in cyclic order (the two ends in rank 2, lexicographically)
    and its sorted lattice points, which are all Hilbert points; the facets
    in increasing order of (-k, n).

    These compact facets, the "floor" through which every ray of the cone
    exits, are found in integers.  In rank 2 the floor is the chain of
    ``hilbert_chain``, split into edges at its vertices (see ``_floor_2d``).
    In rank 3 it is gift-wrapped over ``_cone_lower_points``, the primitive
    points sum t_i g_i with 0 < sum t_i <= 1 in some simplex of a pulling
    triangulation, whichever apex it is pulled from: the first facet is pivoted about a floor edge on a wall of
    the cone, then every polygon edge off the walls is pivoted about in turn
    (see ``_floor_3d``).

    The result is certified: every facet has <n, h> >= k > 0 on every
    candidate and <n, g> > 0 on every generator, and in rank 3 every floor
    edge off the walls lies in exactly two of the facets found; a failure
    raises ``ConeError``, as does a cone whose parallelepiped has more than
    ``MAX_COSETS`` points.
    """
    if not (c.is_pointed and c.is_full_dimensional):
        raise ConeError("hull floor requires a pointed full-dimensional cone")
    rank = c.lattice_rank
    if rank not in (2, 3):
        raise ConeError(f"hull floor implemented for rank 2 and 3, got rank {rank}")
    gens = [g.coords for g in c.generators]
    if rank == 2:
        floor = _floor_2d(*hilbert_chain(c), gens)
    else:
        floor = _floor_3d(c, list(_cone_lower_points(c)), gens)
    return [
        (n, k, verts, [LatticeVector(p) for p in sorted(tight)])
        for n, k, verts, tight in sorted(floor, key=lambda facet: (-facet[1], facet[0]))
    ]


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _sub(u, v) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(u, v))


def _certified_tight(n, k, members, gens) -> list[tuple[int, ...]]:
    """The members on the floor facet (n, k), after checking that it is one:
    <n, h> >= k > 0 on every member and <n, g> > 0 on every generator."""
    values = [_dot(n, h) for h in members]
    if k <= 0 or min(values) < k or any(_dot(n, g) <= 0 for g in gens):
        raise ConeError(f"hull floor certificate failed at facet normal {n}, level {k}")
    return [h for h, v in zip(members, values) if v == k]


def _floor_2d(chain, terms, gens) -> list:
    """(n, k, ends, tight members) of each compact edge of a rank-2 hull,
    from the chain and terms of ``hilbert_chain``.

    det(u_i - u_{i-1}, u_{i+1} - u_i) = 2 - b_i, so u_i is a hull vertex
    exactly when b_i != 2 and the chain splits into edges at those rays.
    The primitive normal n of an edge ab has <n, a> = det(a, b) / g > 0 in
    counterclockwise order, and every chain member is certified against it."""
    points = [u.coords for u in chain]
    ends = [points[0], *(u for u, b in zip(points[1:], terms) if b != 2), points[-1]]
    floor = []
    for a, b in zip(ends, ends[1:]):
        n = _gcd_normalize((b[1] - a[1], a[0] - b[0]))
        k = _dot(n, a)
        floor.append((n, k, sorted((a, b)), _certified_tight(n, k, points, gens)))
    return floor


def _polygon(n, pts) -> list[tuple[int, ...]]:
    """Vertices in cyclic order of the convex hull of points in rank 3 on a
    plane with normal n, through the planar hull of their projection that
    drops a coordinate n does not vanish on, an affine bijection of the plane."""
    i = next(j for j in range(3) if n[j])
    flat = {p[:i] + p[i + 1 :]: p for p in pts}
    return [flat[q] for q in convex_hull_2d(list(flat))]


def _floor_3d(c: Cone, members, gens) -> list:
    """(n, k, vertices, tight members) of each compact hull facet of a
    pointed full-dimensional rank-3 cone, by gift wrapping over its candidate
    points, ``_cone_lower_points``.

    Why these candidates give the same floor, tight sets and order as the
    Hilbert basis:
    - every generator g has <n, g> >= k, so a floor point lies in some
      simplex with sum t_i <= 1;
    - a floor point is irreducible, as h1 + h2 has <n, .> >= 2k, so it is
      primitive, and it is a candidate;
    - every candidate lies in c ∩ N, so the hull, the tight sets and the
      (-k, n) order are unchanged;
    - the certificate on the candidates covers every lattice point of c: a
      point with sum t_i > 1 exceeds k by linearity, and a non-primitive
      point is a multiple of a primitive one.

    The first edge lies on the first wall of the cone: its least generator a
    and the wall's candidate b next to a in angle, which are neighbours on
    the wall's planar floor.  Pivoting about an edge ab of a face already
    found, away from that face, the planes through a and b are ordered by
    angle; a single pass keeps the first plane and replaces it by the plane
    through any member it leaves on the wrong side, and ends at the facet
    across the edge.  Every polygon edge of a new facet that lies on no wall
    is pivoted about in turn, until each such edge is in two facets.
    """
    walls = [m.coords for m in c.inequalities]
    gen_set = set(gens)

    def pivot(a, b, beyond, n):
        """Primitive normal of the plane through a and b leaving every member
        on the side of ``beyond``, a point off the line ab of the face already
        found; n starts as that face's normal negated, which leaves exactly
        the members off the face on the wrong side, <n, q> < <n, a>."""
        d, e = _sub(b, a), _sub(beyond, a)
        n0, n1, n2 = n
        level = _dot(n, a)
        for q0, q1, q2 in members:
            if n0 * q0 + n1 * q1 + n2 * q2 < level:
                n = _cross(d, (q0 - a[0], q1 - a[1], q2 - a[2]))
                if _dot(n, e) < 0:
                    n = tuple(-x for x in n)
                n0, n1, n2 = n
                level = _dot(n, a)
        return _gcd_normalize(n)

    facets: dict[tuple[tuple[int, ...], int], tuple] = {}
    edges: dict[frozenset, int] = {}
    todo = []

    def add(n, k):
        tight = _certified_tight(n, k, members, gens)
        verts = _polygon(n, tight)
        if len(verts) < 3:
            raise ConeError(f"hull floor facet {tight} spans no plane")
        facets[(n, k)] = (n, k, verts, tight)
        for i, (u, v) in enumerate(zip(verts, verts[1:] + verts[:1])):
            if any(_dot(w, u) == 0 == _dot(w, v) for w in walls):
                continue
            key = frozenset((u, v))
            edges[key] = edges.get(key, 0) + 1
            if edges[key] == 1:
                todo.append((u, v, verts[i - 1], n))

    wall = walls[0]
    face = [h for h in members if _dot(wall, h) == 0]
    a = min(h for h in face if h in gen_set)
    b = None
    for q in face:
        if q != a and (b is None or _dot(_cross(q, b), wall) * _dot(_cross(a, q), wall) > 0):
            b = q
    n = pivot(a, b, tuple(2 * x for x in a), tuple(-x for x in wall))
    add(n, _dot(n, a))
    while todo:
        u, v, beyond, n = todo.pop()
        if edges[frozenset((u, v))] != 1:
            continue
        across = pivot(u, v, beyond, tuple(-x for x in n))
        level = _dot(across, u)
        if (across, level) in facets:
            raise ConeError(f"hull floor edge {u}, {v} is in one facet only")
        add(across, level)
    if any(count != 2 for count in edges.values()):
        raise ConeError("hull floor is not closed: an edge off the walls is not in two facets")
    return list(facets.values())


@dataclass(frozen=True)
class BinomialRelation:
    """A pair of exponent vectors over the dual Hilbert basis with equal image."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    image: tuple[int, ...]


def toric_relations(c: Cone, degree_bound: int) -> list[BinomialRelation]:
    """Binomial relations among the dual Hilbert basis up to a total degree.

    Monomials are grouped by their lattice image; each fiber of size n
    contributes the n-1 consecutive relations in lexicographic order, so
    the emitted set connects every pair of equal-image monomials of total
    degree <= degree_bound.
    """
    if not (c.is_pointed and c.is_full_dimensional):
        raise ConeError("toric relations require a full-dimensional pointed cone")
    return _binomial_relations(hilbert_basis(dual_cone(c)).members, c.lattice_rank, degree_bound)


def _binomial_relations(basis, rank: int, degree_bound: int) -> list[BinomialRelation]:
    """``toric_relations`` among a given dual Hilbert basis in M = Z^rank."""
    k = len(basis)
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for deg in range(1, degree_bound + 1):
        for combo in itertools.combinations_with_replacement(range(k), deg):
            expo = [0] * k
            img = [0] * rank
            for i in combo:
                expo[i] += 1
                for j in range(rank):
                    img[j] += basis[i].coords[j]
            fibers.setdefault(tuple(img), []).append(tuple(expo))
    relations = []
    for img in sorted(fibers):
        monos = sorted(set(fibers[img]))
        for a, b in zip(monos, monos[1:]):
            relations.append(BinomialRelation(left=a, right=b, image=img))
    return relations
