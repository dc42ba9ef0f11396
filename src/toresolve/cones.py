"""Strongly convex rational polyhedral cones, dual descriptions, and fans.

Cones are stored with both a generator (extreme ray) and an inequality
(facet normal) description, computed once by an exact double-description
pass that keeps each ray's incidence as an integer bitmask, or from the
adjugate for simplicial cones.  ``make_cone`` reads pointedness and
extremality off the facet incidence of its generators, and every cone's
``equations`` are a basis of the annihilator of its span, so its dimension
is the lattice rank less their number; no rank is ever computed.  Duals of
low-dimensional cones are not pointed; they carry an explicit lineality
basis instead of being rejected, so that taking the dual is an involution
on everything this package produces.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .lattice import (
    Covector,
    IntMatrix,
    LatticeVector,
    _identity_rows,
    _made,
    adjugate,
    lattice_determinant,
    primitive,
    rational_solve,
)


class ConeError(ValueError):
    """Domain error raised by cone and fan operations."""


def _gcd_normalize(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*vec)
    return tuple(c // g for c in vec) if g > 1 else vec


def _dot(a, x) -> int:
    return sum(map(operator.mul, a, x))


_coords = operator.attrgetter("coords")


def extreme_rays(
    constraints: list[tuple[int, ...]], dim: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Extreme rays and lineality basis of {x : <a, x> >= 0 for all a}.

    Exact double-description over the integers: start from the full space,
    insert one halfspace at a time, and combine only adjacent ray pairs
    (Fukuda's combinatorial adjacency test).  Each ray keeps its incidence as
    an ``int`` bitmask, bit i set when the i-th processed constraint vanishes
    on it.  A lineality step keeps every adjusted ray's mask and adds the new
    bit (the old constraints vanish on the lineality), and the new ray gets
    every old bit; a double-description step adds the bit to each tight ray
    and gives the combination of rp and rn the mask (kp & kn) | bit.  rp and
    rn are adjacent when no third ray's mask contains kp & kn.

    After each constraint, ``rays`` are exactly the extreme rays of the
    current cone modulo the lineality span, one primitive vector each, and
    each mask is its ray's zero set over the processed constraints.  A
    lineality step keeps this, since projecting along l0 is an isomorphism
    of the quotients; a double-description step keeps it because on a
    minimal ray list the combinatorial test is exact (Fukuda and Prodon,
    1996).  So every adjacent combination is extreme, and none lies in the
    lineality span: the result needs no final check.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []
    for n, a in enumerate(filter(any, constraints)):
        bit = 1 << n
        lvals = [_dot(a, l) for l in lineality]
        i0 = next((i for i, v in enumerate(lvals) if v), None)
        if i0 is not None:
            # reduce lineality: keep the kernel part, one generator becomes a ray
            l0, v0 = lineality.pop(i0), lvals.pop(i0)
            if v0 < 0:
                l0, v0 = tuple(-c for c in l0), -v0
            lineality = [_gcd_normalize(tuple(v0 * c - v * d for c, d in zip(l, l0))) for l, v in zip(lineality, lvals)]
            rays = [_gcd_normalize(tuple(v0 * c - _dot(a, r) * d for c, d in zip(r, l0))) for r in rays] + [l0]
            masks = [k | bit for k in masks] + [bit - 1]
            continue
        vals = [_dot(a, r) for r in rays]
        masks = [k if v else k | bit for v, k in zip(vals, masks)]
        if min(vals, default=0) >= 0:
            continue
        kept = [(r, k) for r, v, k in zip(rays, vals, masks) if v >= 0]
        pos = [(j, r, v) for j, (r, v) in enumerate(zip(rays, vals)) if v > 0]
        neg = [(j, r, v) for j, (r, v) in enumerate(zip(rays, vals)) if v < 0]
        for jp, rp, vp in pos:
            for jn, rn, vn in neg:
                common = masks[jp] & masks[jn]
                if any(not common & ~k3 for j3, k3 in enumerate(masks) if j3 != jp and j3 != jn):
                    continue
                comb = tuple(vp * c - vn * d for c, d in zip(rn, rp))
                kept.append((_gcd_normalize(comb), common | bit))
        rays, masks = [r for r, _ in kept], [k for _, k in kept]
    return sorted(rays), sorted(lineality)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone with both descriptions materialized.

    ``make_cone`` only ever produces strongly convex (pointed) cones; duals
    of low-dimensional cones additionally carry a ``lineality`` basis.
    ``inequalities`` are the facet normals and ``equations`` a basis of the
    annihilator of the linear span, which every constructor keeps, so the
    dimension ``dim`` is the lattice rank less their number.  The
    ``grading`` is set by the constructors that know it and otherwise found
    on first read.
    """

    lattice_rank: int
    generators: tuple[LatticeVector, ...]
    inequalities: tuple[Covector, ...]
    equations: tuple[Covector, ...] = ()
    lineality: tuple[LatticeVector, ...] = ()

    @property
    def dim(self) -> int:
        return self.lattice_rank - len(self.equations)

    @cached_property
    def grading(self) -> tuple[Covector, int] | None:
        """The grading functional m_sigma (equal to one on every generator)
        and its index, or ``None``; meant for pointed full-dimensional cones,
        which ``classify.gorenstein_data`` checks for."""
        return _solve_grading(self)

    @property
    def is_pointed(self) -> bool:
        return not self.lineality

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.lattice_rank

    @property
    def is_simplicial(self) -> bool:
        if not self.is_pointed:
            return False
        return len(self.generators) == self.dim

    @property
    def is_zero(self) -> bool:
        return not self.generators and not self.lineality

    def contains(self, v: LatticeVector) -> bool:
        return all(e.pair(v) == 0 for e in self.equations) and all(
            i.pair(v) >= 0 for i in self.inequalities
        )

    def contains_in_interior(self, v: LatticeVector) -> bool:
        """Membership in the relative interior."""
        return all(e.pair(v) == 0 for e in self.equations) and all(
            i.pair(v) > 0 for i in self.inequalities
        )

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(g) for g in other.generators) and all(
            self.contains(l) and self.contains(-l) for l in other.lineality
        )

    def __repr__(self):
        gens = ", ".join(str(g.coords) for g in self.generators)
        extra = f" lineality={len(self.lineality)}" if self.lineality else ""
        return f"Cone[{gens}]{extra}"


def _solve_grading(c: Cone) -> tuple[Covector, int] | None:
    """Solve <m, v> = 1 on the generators; the index is the denominator of m."""
    if c.dim != c.lattice_rank:
        raise ConeError(f"the grading of {c} needs {c.lattice_rank} linearly independent generators")
    m = rational_solve(list(c.generators), [1] * len(c.generators))
    return None if m is None else (m, m.denominator)


def _build_cone(ray_tuples, lin_tuples, ineq_tuples, eq_tuples, rank) -> Cone:
    """The cone on computed tuples of ``int``, each list sorted, unchecked."""
    return Cone(
        lattice_rank=rank,
        generators=tuple(_made(LatticeVector, v) for v in sorted(ray_tuples)),
        inequalities=tuple(_made(Covector, m) for m in sorted(ineq_tuples)),
        equations=tuple(_made(Covector, m) for m in sorted(eq_tuples)),
        lineality=tuple(_made(LatticeVector, v) for v in sorted(lin_tuples)),
    )


def make_cone(vs: list[LatticeVector]) -> Cone:
    """Cone positively spanned by ``vs``.

    The generators are made primitive and deduplicated as integer tuples,
    and the facet inequalities and the equations computed by dualization.
    Input containing a line is rejected ("not pointed"): a generator on
    every facet, or any generator when there is no facet, is an implicit
    equality of the dual, so the dual is not full-dimensional.  A generator
    is extreme exactly when no other generator lies on all of its facets:
    one that is not extreme lies inside a face of dimension >= 2, whose
    extreme generators lie on strictly more facets; an extreme one spans its
    own minimal face.  Redundant generators are discarded.
    """
    if not vs:
        raise ConeError("empty generator list")
    rank = vs[0].rank
    if any(v.rank != rank for v in vs):
        raise ConeError("mixed ambient ranks in generator list")
    gens = list(dict.fromkeys(_gcd_normalize(v.coords) for v in vs if any(v.coords)))
    if not gens:
        raise ConeError("cone generated by zero vectors only")
    ineqs, eqs = extreme_rays(gens, rank)
    facet_sets = [sum(1 << i for i, m in enumerate(ineqs) if not _dot(m, g)) for g in gens]
    if (1 << len(ineqs)) - 1 in facet_sets:
        raise ConeError(f"not pointed: pos{sorted(gens)} contains a line")
    extreme = [g for g, f in zip(gens, facet_sets) if sum(not f & ~f2 for f2 in facet_sets) == 1]
    return _build_cone(extreme, (), ineqs, eqs, rank)


def simplicial_cone(gens: list[LatticeVector]) -> Cone:
    """Cone on n linearly independent vectors in rank n, by the adjugate.

    With G the matrix whose rows are the primitive generators, the facet
    normals are the columns of sign(det G) * adj(G), made primitive.  The
    result equals ``make_cone(gens)``; no double description is run, and
    dependent input raises ``ConeError``.
    """
    rank = len(gens)
    if not gens or any(g.rank != rank for g in gens):
        raise ConeError(f"simplicial cone needs n vectors of rank n, got {rank}")
    rows = [_gcd_normalize(g.coords) for g in gens]
    det, cols = adjugate(rows)
    if det == 0:
        raise ConeError(f"linearly dependent generators {sorted(rows)}")
    sign = 1 if det > 0 else -1
    normals = [_gcd_normalize(tuple(sign * x for x in col)) for col in cols]
    return _build_cone(rows, (), normals, (), rank)


def _mapped_cones(cones: list[Cone], b: IntMatrix, images: dict) -> list[Cone]:
    """``simplicial_cone`` of each cone's generators mapped by the nonsingular
    b, read off the cone (the cone itself when b is the identity): ``images``
    maps each generator's coordinates to its image b * g, and a primitive
    inward facet normal n maps to sign(det b) * n * adj(b); both are made
    primitive.  One adjugate serves all cones; a unimodular b keeps vectors
    primitive."""
    rows = b.rows
    if rows == tuple(map(tuple, _identity_rows(len(rows)))):
        return list(cones)
    det, cols = adjugate(rows)
    normal_rows = [tuple(x if det > 0 else -x for x in col) for col in cols]
    made_primitive = (lambda v: v) if abs(det) == 1 else _gcd_normalize
    if abs(det) != 1:
        images = {k: _made(LatticeVector, _gcd_normalize(v.coords)) for k, v in images.items()}
    out = []
    for c in cones:
        normals = sorted(made_primitive(tuple(_dot(r, n.coords) for r in normal_rows)) for n in c.inequalities)
        out.append(Cone(
            lattice_rank=c.lattice_rank,
            generators=tuple(sorted((images[g.coords] for g in c.generators), key=_coords)),
            inequalities=tuple(_made(Covector, n) for n in normals),
        ))
    return out


def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def cone_over_polygon(vertices: list[tuple[int, ...]]) -> Cone:
    """Cone in rank 3 over a convex lattice polygon off the origin, given by
    its vertices in cyclic order (either orientation).

    The facet normals are the cross products of consecutive vertices, made
    primitive and signed by the orientation det(v0, v1, v2); for a triangle
    these are the adjugate columns of ``simplicial_cone``.  The result equals
    ``make_cone`` of the vertices; no double description is run.
    """
    rows = [_gcd_normalize(v) for v in vertices]
    det = sum(x * y for x, y in zip(_cross(rows[0], rows[1]), rows[2]))
    if det == 0:
        raise ConeError(f"polygon vertices {rows} span no cone")
    sign = 1 if det > 0 else -1
    normals = [
        _gcd_normalize(tuple(sign * x for x in _cross(u, v))) for u, v in zip(rows, rows[1:] + rows[:1])
    ]
    return _build_cone(rows, (), normals, (), 3)


def dual_cone(c: Cone) -> Cone:
    """The dual cone in the dual lattice.

    Both descriptions swap roles, so this is exact and involutive.  When
    ``c`` is not full-dimensional the dual is not pointed and records its
    lineality (the annihilator of lin(c)).
    """
    return _build_cone(
        [m.primitive().coords for m in c.inequalities],
        [m.primitive().coords for m in c.equations],
        [g.coords for g in c.generators],
        [l.coords for l in c.lineality],
        c.lattice_rank,
    )


def faces(c: Cone) -> list[Cone]:
    """All faces of a pointed cone, from {0} up to the cone itself."""
    if not c.is_pointed:
        raise ConeError("face enumeration requires a pointed cone")
    face_sets = {c.generators}
    queue = [c.generators]
    while queue:
        gens = queue.pop()
        for m in c.inequalities:
            sub = tuple(g for g in gens if m.pair(g) == 0)
            if sub not in face_sets:
                face_sets.add(sub)
                queue.append(sub)
    face_sets.add(())
    result = []
    for gens in sorted(face_sets):
        if gens:
            result.append(make_cone(list(gens)))
        else:
            result.append(_build_cone((), (), (), [m.coords for m in _standard_basis(c.lattice_rank)], c.lattice_rank))
    return result


def _standard_basis(rank: int):
    return [Covector(tuple(int(i == j) for j in range(rank))) for i in range(rank)]


def facets(c: Cone) -> list[Cone]:
    """Faces of codimension one (within the cone's own dimension)."""
    d = c.dim
    return [f for f in faces(c) if f.dim == d - 1]


def multiplicity(c: Cone) -> int:
    """mult(c; N): index of the generator sublattice in the induced lattice.

    Defined for simplicial cones only; equals 1 exactly for basic cones.  A
    full-dimensional cone induces N itself, so the index is |det| of the
    generators; a lower-dimensional one goes through the Smith form.
    """
    if not c.is_simplicial:
        raise ConeError("multiplicity undefined: cone is not simplicial")
    if c.is_full_dimensional:
        return abs(IntMatrix.from_vectors(c.generators).det())
    return lattice_determinant(list(c.generators))


def is_simplicial(c: Cone) -> bool:
    return c.is_simplicial


def is_basic(c: Cone) -> bool:
    """Smoothness test for the associated affine chart."""
    return c.is_simplicial and multiplicity(c) == 1


def intersect_cones(c1: Cone, c2: Cone) -> Cone:
    constraints = (
        [m.primitive().coords for m in c1.inequalities]
        + [m.primitive().coords for m in c2.inequalities]
    )
    for m in list(c1.equations) + list(c2.equations):
        mi = m.primitive().coords
        constraints.append(mi)
        constraints.append(tuple(-x for x in mi))
    rank = c1.lattice_rank
    rays, lin = extreme_rays(constraints, rank)
    if lin:
        # not pointed: cone(rays) + span(lin), dualized once for its facets and span
        ineqs, eqs = extreme_rays(rays + lin + [tuple(-x for x in l) for l in lin], rank)
        return _build_cone(rays, lin, ineqs, eqs, rank)
    if not rays:
        return _build_cone((), (), (), [m.coords for m in _standard_basis(rank)], rank)
    return make_cone([LatticeVector(r) for r in rays])


def _smallest_face(c: Cone, rays: tuple[LatticeVector, ...]) -> tuple[LatticeVector, ...]:
    """Generators of the smallest face of ``c`` containing all of ``rays``."""
    tight = [m for m in c.inequalities if all(m.pair(r) == 0 for r in rays)]
    return tuple(g for g in c.generators if all(m.pair(g) == 0 for m in tight))


def is_face_of(k: Cone, c: Cone) -> bool:
    if k.lineality:
        return False
    if not c.contains_cone(k):
        return False
    return frozenset(k.generators) == frozenset(_smallest_face(c, k.generators))


@dataclass(frozen=True)
class Fan:
    """Finite face-closed, intersection-compatible collection of pointed cones.

    Only the maximal cones are stored; equality is equality of the lattice
    rank and of that set, in any order.
    """

    lattice_rank: int
    maximal_cones: tuple[Cone, ...]

    def rays(self) -> tuple[LatticeVector, ...]:
        """The rays of the maximal cones, sorted; found on the first call and kept."""
        return self._rays

    @cached_property
    def _rays(self) -> tuple[LatticeVector, ...]:
        return tuple(sorted({g.coords: g for c in self.maximal_cones for g in c.generators}.values()))

    def supports(self, v: LatticeVector) -> bool:
        return any(c.contains(v) for c in self.maximal_cones)

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.lattice_rank == other.lattice_rank
            and frozenset(self.maximal_cones) == frozenset(other.maximal_cones)
        )

    def __hash__(self):
        return hash((self.lattice_rank, frozenset(self.maximal_cones)))

    def __repr__(self):
        return f"Fan({len(self.maximal_cones)} maximal cones, rank {self.lattice_rank})"


def make_fan(cones: list[Cone]) -> Fan:
    """Validated fan from a list of cones.

    Cones that are faces of other cones are dropped; any pair whose
    intersection is not a common face is reported as an error.
    """
    if not cones:
        raise ConeError("empty fan")
    rank = cones[0].lattice_rank
    if any(c.lattice_rank != rank for c in cones):
        raise ConeError("cones live in different lattices")
    if any(not c.is_pointed for c in cones):
        raise ConeError("fans consist of pointed cones")
    unique = []
    for c in cones:
        if c not in unique:
            unique.append(c)
    maximal = []
    for c in unique:
        redundant = False
        for d in unique:
            if c is d or c == d:
                continue
            if d.contains_cone(c):
                if is_face_of(c, d) or frozenset(c.generators) == frozenset(d.generators):
                    redundant = True
                    break
                raise ConeError(f"cone {c} is contained in {d} but is not a face of it")
        if not redundant:
            maximal.append(c)
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            k = intersect_cones(maximal[i], maximal[j])
            if not (is_face_of(k, maximal[i]) and is_face_of(k, maximal[j])):
                raise ConeError(
                    "incompatible cone pair: intersection of "
                    f"{maximal[i]} and {maximal[j]} is not a common face"
                )
    key = lambda c: tuple(g.coords for g in c.generators)
    return Fan(lattice_rank=rank, maximal_cones=tuple(sorted(maximal, key=key)))


def star_subdivision(f: Fan, v: LatticeVector) -> Fan:
    """Stellar subdivision of the fan at the primitive lattice point ``v``.

    Every cone containing ``v`` is replaced by the joins of ``v`` with its
    facets not containing ``v``; the result refines ``f`` and has ray set
    Gen(f) united with {v}.
    """
    if v.is_zero:
        raise ConeError("cannot subdivide at the origin")
    if primitive(v) != v:
        raise ConeError(f"subdivision point {v.coords} is not primitive")
    if not f.supports(v):
        raise ConeError(f"subdivision point {v.coords} lies outside the fan support")
    new_cones: list[Cone] = []
    for c in f.maximal_cones:
        if not c.contains(v):
            new_cones.append(c)
            continue
        if any(g == v for g in c.generators) and not c.contains_in_interior(v):
            # v is an existing ray and subdividing changes nothing for this cone
            new_cones.append(c)
            continue
        for g in facets(c):
            if not g.contains(v):
                new_cones.append(make_cone(list(g.generators) + [v]))
    return make_fan(new_cones)
