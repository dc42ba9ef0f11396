"""Hilbert bases of cone semigroups, embedding dimension, binomial relations."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cones import Cone, ConeError, dual_cone, make_cone
from .lattice import (
    IntMatrix,
    LatticeVector,
    adjugate,
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
    """Pulling triangulation of a pointed full-dimensional cone into simplices.

    The first ray is joined to each facet that misses it; every facet of a
    pointed 3-dimensional cone has exactly two rays.
    """
    gens = c.generators
    d = c.dim
    if len(gens) == d:
        return [gens]
    if d != 3:
        raise ConeError(f"triangulation of a {d}-dimensional cone with {len(gens)} rays is unsupported")
    apex = gens[0]
    return [
        (apex, *(g for g in gens if m.pair(g) == 0))
        for m in c.inequalities
        if m.pair(apex) != 0
    ]


def _parallelepiped_points(gens: tuple[LatticeVector, ...]) -> list[tuple[int, ...]]:
    """Lattice points of the half-open parallelepiped sum t_i g_i, t_i in [0,1).

    Enumerated via the Smith normal form: representatives of Z^d modulo the
    generator sublattice, shifted into the fundamental domain.  Exactly
    det-many points, including the origin.
    """
    d = len(gens)
    g_cols = IntMatrix(tuple(zip(*(g.coords for g in gens))))
    s, u, _v = smith_normal_form(g_cols)
    diag = [s.rows[i][i] for i in range(d)]
    if any(x == 0 for x in diag):
        raise ConeError("parallelepiped of dependent vectors")
    u_inv = u.inverse_unimodular()
    # exact inverse of the generator matrix, once
    det, adj_cols = adjugate(g_cols.rows)
    inv_rows = [tuple(Fraction(x, det) for x in row) for row in zip(*adj_cols)]
    points = []
    for a in itertools.product(*(range(abs(x)) for x in diag)):
        x0 = tuple(
            sum(u_inv.rows[i][j] * a[j] for j in range(d)) for i in range(d)
        )
        t = [sum(inv_rows[i][j] * x0[j] for j in range(d)) for i in range(d)]
        frac = [ti - math.floor(ti) for ti in t]
        x = tuple(
            int(sum(Fraction(g.coords[i]) * f for g, f in zip(gens, frac)))
            for i in range(d)
        )
        points.append(x)
    return points


def _to_sublattice(c: Cone):
    """Coordinates of a low-dimensional pointed cone inside its span lattice.

    Returns (cone in Z^d, embedding matrix B with columns the basis of N_c).
    """
    ann = integer_kernel(IntMatrix.from_vectors(list(c.generators)))
    basis = integer_kernel(IntMatrix.from_vectors(ann))
    b_cols = IntMatrix(tuple(zip(*(v.coords for v in basis))))
    small_gens = [LatticeVector(_solve_columns(b_cols, g)) for g in c.generators]
    return make_cone(small_gens), b_cols


def _solve_columns(b_cols: IntMatrix, g: LatticeVector) -> tuple[int, ...]:
    # solve B * x = g: each row of B pairs with the coordinate vector x
    sol = rational_solve([LatticeVector(r) for r in b_cols.rows], list(g.coords))
    if sol is None:
        raise ConeError("generator outside sublattice span")
    return tuple(int(x) for x in sol[0].coords)


def hilbert_basis(c: Cone) -> HilbertBasis:
    """Minimal generating system of c ∩ N for a strongly convex cone.

    Strategy: pull the first ray to triangulate into simplicial subcones,
    enumerate the lattice points of each fundamental half-open
    parallelepiped, add the ray generators, then, in degree order, keep the
    elements whose facet values dominate no kept element's.  Uniqueness
    fails for non-pointed cones, which are rejected.
    """
    if not c.is_pointed:
        raise ConeError("Hilbert basis requires a strongly convex cone")
    if c.is_zero:
        return HilbertBasis(cone=c, members=())
    if c.dim < c.lattice_rank:
        small, b_cols = _to_sublattice(c)
        members = tuple(sorted(b_cols.apply(m) for m in hilbert_basis(small).members))
        return HilbertBasis(cone=c, members=members)

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


def floor_facets(c: Cone) -> list[list[LatticeVector]]:
    """Hilbert points on each compact facet of conv((c ∩ N) - {0}) facing the origin.

    The hull equals conv(Hilbert basis) + c, so its facets are computed from
    the homogenization; facets whose supporting value at the origin side is
    positive form the "floor" through which every ray of the cone exits.
    """
    if not (c.is_pointed and c.is_full_dimensional):
        raise ConeError("hull floor requires a pointed full-dimensional cone")
    hb = hilbert_basis(c)
    rank = c.lattice_rank
    homog = [(1, *h.coords) for h in hb.members] + [(0, *g.coords) for g in c.generators]
    from .cones import extreme_rays

    normals, lin = extreme_rays(homog, rank + 1)
    if lin:
        raise ConeError("unexpected lineality in hull homogenization")
    out = []
    for nm in normals:
        c0, m = nm[0], nm[1:]
        if c0 >= 0:
            continue
        tight = [
            h
            for h in hb.members
            if c0 + sum(a * b for a, b in zip(m, h.coords)) == 0
        ]
        if any(
            sum(a * b for a, b in zip(m, g.coords)) == 0 for g in c.generators
        ):
            raise ConeError("floor facet with recession direction; cone degenerate")
        if not tight:
            raise ConeError("empty floor facet")
        out.append(sorted(tight))
    return out


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
