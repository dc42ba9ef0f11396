"""Singularity classification: the recapitulation-table flags plus polytope predicates.

A cone is graded by the rational functional equal to one on its generators
(when it exists); Gorenstein is integrality of the functional, and
local-complete-intersection the stacked-polytope normal form of the
height-one cross-section.  Terminal/canonical come from closed forms in rank
<= 2 (Gorenstein, smooth) and at index one in rank 3 (the cross-section is
elementary), and elsewhere from the primitive lattice points at grading at
most one (``_grading_slab_points``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

from .cones import Cone, ConeError, is_basic, make_cone
from .hilbert import _cone_lower_points, _to_sublattice, embedding_dimension
from .lattice import (
    Covector,
    IntMatrix,
    LatticeVector,
    _integer_tuple,
    _turn,
    adjugate,
    convex_hull_2d,
    hyperplane_basis,
    integer_kernel,
)


class ClassifyError(ValueError):
    """Domain error raised by classification operations."""


# ---------------------------------------------------------------------------
# lattice polytopes (dimension <= 2 is all the pipeline needs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticePolytope:
    """Convex lattice polytope of dimension <= 2, vertices in canonical cyclic order.

    Two-dimensional polytopes store their vertices counterclockwise starting
    from the lexicographically smallest one; lower-dimensional ones store
    them sorted.  Canonical vertices are affinely independent, except that a
    planar hull can have more than three, so the dimension is the vertex
    count less one, capped by the ambient rank.  The lattice, interior and
    edge-interior points are found on first request, or set by the code that
    made the polytope, and kept, each in (x, y) order; the methods listing
    them return fresh lists.  The Pick counts and the cell tag are found on
    first request and kept.
    """

    vertices: tuple[tuple[int, ...], ...]
    dimension: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dimension", min(len(self.vertices) - 1, len(self.vertices[0])))

    @classmethod
    def from_points(cls, points) -> "LatticePolytope":
        pts = [_integer_tuple(p, "point", ClassifyError) for p in points]
        if not pts:
            raise ClassifyError("empty point set")
        if len(pts[0]) == 2:
            # the monotone chain starts from the least vertex
            return cls(vertices=tuple(convex_hull_2d(pts)))
        # dimension 0/1 in arbitrary ambient rank, or higher-rank input kept sorted
        uniq = sorted(set(pts))
        if len(uniq) > 2 and len(pts[0]) != 2:
            raise ClassifyError("only polytopes of dimension <= 2 are supported")
        return cls(vertices=tuple(uniq))

    @property
    def ambient_rank(self) -> int:
        return len(self.vertices[0])

    def edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        if self.dimension < 2:
            return []
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    @cached_property
    def counts(self) -> tuple[int, int, int]:
        """The doubled area A, the boundary point count B and the interior
        point count I, with no point listed: A by the shoelace formula, B as
        the sum of the edges' lattice lengths, and I = (A - B + 2) / 2 by
        Pick's theorem.  A segment or a point is (0, all its points, 0)."""
        if self.dimension < 2:
            return 0, lattice_length(self.vertices[0], self.vertices[-1]) + 1, 0
        v = self.vertices
        edges = list(zip(v, v[1:] + v[:1]))
        area2 = abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges))
        boundary = sum(math.gcd(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in edges)
        return area2, boundary, (area2 - boundary + 2) // 2

    @cached_property
    def tag(self) -> dict:
        """The facts of a polygon cell read off ``counts`` and the vertices:
        the interior and edge-interior point counts (I and B less the
        vertices), whether the polygon is basic (A = 1), and whether it is a
        unit parallelogram: a quadrilateral with A = 2, which has B = 4 and
        I = 0, so it is unimodularly the unit square."""
        area2, boundary, interior = self.counts
        return {
            "interior_points": interior,
            "edge_interior_points": boundary - len(self.vertices),
            "basic": area2 == 1,
            "unit_parallelogram": len(self.vertices) == 4 and area2 == 2,
        }

    def area2(self) -> int:
        """Twice the euclidean area (the normalized lattice area)."""
        return self.counts[0]

    def contains(self, p: tuple[int, ...]) -> bool:
        if self.dimension == 0:
            return tuple(p) == self.vertices[0]
        if self.dimension == 1:
            a, b = self.vertices
            return _on_segment(a, b, tuple(p))
        n = len(self.vertices)
        return all(
            _turn(self.vertices[i], self.vertices[(i + 1) % n], p) >= 0
            for i in range(n)
        )

    @cached_property
    def _points(self) -> tuple[tuple[int, ...], ...]:
        """Lattice points in (x, y) order: each column x runs from the highest
        lower edge bound to the lowest upper one (counterclockwise edges with
        dx > 0 bound y from below, dx < 0 from above, vertical ones not at all)."""
        if self.dimension < 2:
            return tuple(_segment_points(self.vertices[0], self.vertices[-1]))
        lower, upper = [], []
        for (x0, y0), (x1, y1) in self.edges():
            if x1 != x0:
                (lower if x1 > x0 else upper).append((x0, y0, x1 - x0, y1 - y0))
        xs = [v[0] for v in self.vertices]
        return tuple(
            (x, y)
            for x in range(min(xs), max(xs) + 1)
            for y in range(
                max(y0 - (dy * (x0 - x)) // dx for x0, y0, dx, dy in lower),
                min(y0 + (dy * (x - x0)) // dx for x0, y0, dx, dy in upper) + 1,
            )
        )

    @cached_property
    def _interior(self) -> tuple[tuple[int, ...], ...]:
        if not self.counts[2]:
            return ()
        boundary = set(self.boundary_points())
        return tuple(p for p in self._points if p not in boundary)

    @cached_property
    def _edge_interior(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(p for a, b in self.edges() for p in _segment_points(a, b)[1:-1]))

    def lattice_points(self) -> list[tuple[int, ...]]:
        return list(self._points)

    def boundary_points(self) -> list[tuple[int, ...]]:
        if self.dimension < 2:
            return self.lattice_points()
        out = []
        for a, b in self.edges():
            out.extend(_segment_points(a, b)[:-1])
        return out

    def interior_points(self) -> list[tuple[int, ...]]:
        return list(self._interior)

    def edge_interior_points(self) -> list[tuple[int, ...]]:
        return list(self._edge_interior)

    def __repr__(self):
        return f"LatticePolytope{self.vertices}"


def _on_segment(a, b, p) -> bool:
    if len(a) == 2 and _turn(a, b, p) != 0:
        return False
    d = tuple(y - x for x, y in zip(a, b))
    v = tuple(y - x for x, y in zip(a, p))
    if len(a) != 2:
        # collinearity in arbitrary rank
        if any(v[i] * d[j] != v[j] * d[i] for i in range(len(a)) for j in range(len(a))):
            return False
    t_num, t_den = None, None
    for di, vi in zip(d, v):
        if di != 0:
            t_num, t_den = vi, di
            break
    if t_num is None:
        return all(x == 0 for x in v)
    if t_den < 0:
        t_num, t_den = -t_num, -t_den
    return 0 <= t_num <= t_den and all(vi * t_den == t_num * di for di, vi in zip(d, v))


def _segment_points(a, b) -> list[tuple[int, ...]]:
    d = tuple(y - x for x, y in zip(a, b))
    g = math.gcd(*d)
    if g == 0:
        return [tuple(a)]
    step = tuple(x // g for x in d)
    return [tuple(x + k * s for x, s in zip(a, step)) for k in range(g + 1)]


def lattice_length(a, b) -> int:
    """Number of primitive steps along the segment from a to b."""
    return math.gcd(*(y - x for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# classification of cone singularities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularityReport:
    """Flags of the singularity type dictionary for one cone."""

    smooth: bool
    q_factorial: bool
    q_gorenstein: tuple[Covector, int] | None
    gorenstein: bool
    terminal: bool
    canonical: bool
    log_terminal: bool
    lci: bool | None
    embedding_dim: int | None
    rational: bool = True


def gorenstein_data(c: Cone) -> tuple[Covector, int] | None:
    """The grading functional and index of a Q-Gorenstein cone, if any.

    This is ``c.grading``: the unique m with <m, v> = 1 on every generator,
    together with its denominator (the index); ``None`` when the generators
    do not lie on a common affine hyperplane off the origin.  For index one
    the functional is integral, and primitive since the gcd of its entries
    divides <m, g> = 1 on a generator g.
    """
    if not c.is_pointed:
        raise ClassifyError("grading data requires a pointed cone")
    if not c.is_full_dimensional:
        raise ClassifyError(
            "grading data requires a full-dimensional cone; classify() projects "
            "low-dimensional cones to their span lattice first"
        )
    return c.grading


def _grading_slab_points(c: Cone) -> set[tuple[int, ...]]:
    """Primitive lattice points of a Q-Gorenstein cone with grading at most one.

    ``classify`` walks it only where no closed form decides its flags: in
    rank 3 at index > 1 and in rank >= 4.

    The grading m is one on each generator g_i, so a point sum t_i g_i of a
    simplex has <m, x> = sum t_i: the walk ``hilbert._cone_lower_points``
    lists exactly the primitive slab points.  A non-primitive slab point
    x = k y, k >= 2, has <m, y> <= 1/2, so it exists only in a cone that is
    not canonical, where the primitive point on its ray is listed, below
    grading one too.  So the flags read the same off either set: canonical
    when every point has grading one, terminal when they are also just the
    generators.  The slab is the same over any triangulation on the
    generators that covers the cone; the rays lie on the plane <m, x> = 1,
    so every pulling apex has the same determinant sum and the walk keeps
    the first ray's simplices (see ``hilbert._triangulate``).
    """
    return _cone_lower_points(c)


def height_one_polytope(c: Cone, m: Covector) -> tuple[LatticePolytope, IntMatrix]:
    """Cross-section polytope of a Gorenstein cone on its grading hyperplane.

    Returns the polytope in coordinates of a unimodular basis adapted to m
    (so the last coordinate is the grading) together with the basis matrix.
    The generators are mapped by B^-1 = det(B) adj(B), one adjugate for all.
    """
    basis = hyperplane_basis(m)
    det, cols = adjugate(basis.rows)
    inv_rows = [tuple(det * x for x in row) for row in zip(*cols)]
    pts = []
    for g in c.generators:
        coords = tuple(sum(map(operator.mul, row, g.coords)) for row in inv_rows)
        if coords[-1] != 1:
            raise ClassifyError("generator not on the grading hyperplane")
        pts.append(coords[:-1])
    return LatticePolytope.from_points(pts), basis


def classify(c: Cone) -> SingularityReport:
    """Full singularity report for a pointed cone.

    Low-dimensional cones are classified through their span lattice (the
    chart splits off a torus factor there); a refusal names the input cone.
    ``rational`` is constitutively true for this class of singularities.

    ``canonical`` and ``terminal`` come from a closed form where one decides:
    - in rank <= 2, where every cone is Q-Gorenstein, canonical means Du Val,
      that is Gorenstein (q = n - 1 in cone(e2, n e1 - q e2)), and terminal
      means smooth (n = 1);
    - in rank 3 at index one the cone is canonical, and terminal exactly when
      its height-one polygon is elementary (Reid, *Young person's guide to
      canonical singularities*, 1987; Morrison-Stevens, Proc. AMS 1984); the
      polygon is the one ``lci`` reads;
    - otherwise (rank 3 at index > 1, rank >= 4) they are read off the
      grading slab (``_grading_slab_points``), and are false without a
      grading.
    """
    if not c.is_pointed:
        raise ClassifyError("classification requires a pointed cone")
    named = c
    if not c.is_full_dimensional:
        c, _ = _to_sublattice(c)
    gd = gorenstein_data(c)
    gorenstein = gd is not None and gd[1] == 1
    smooth = is_basic(c)
    lci: bool | None = None
    if gorenstein and c.lattice_rank <= 3:
        polytope, _basis = height_one_polytope(c, gd[0])
        lci = is_nakajima(polytope)
    try:
        if c.lattice_rank <= 2:
            canonical, terminal = gorenstein, smooth
        elif gorenstein and c.lattice_rank == 3:
            canonical, terminal = True, is_elementary(polytope)
        elif gd is not None:
            slab = _grading_slab_points(c)
            canonical = all(sum(map(operator.mul, gd[0].coords, x)) == 1 for x in slab)
            terminal = canonical and slab == {g.coords for g in c.generators}
        else:
            canonical = terminal = False
        embedding_dim = embedding_dimension(c)
    except ConeError as e:
        raise ClassifyError(f"classification of {named}: {e}") from e
    return SingularityReport(
        smooth=smooth,
        q_factorial=c.is_simplicial,
        q_gorenstein=gd,
        gorenstein=gorenstein,
        terminal=terminal,
        canonical=canonical,
        log_terminal=gd is not None,
        lci=lci,
        embedding_dim=embedding_dim,
    )


def is_elementary(p: LatticePolytope) -> bool:
    """True when the polytope's only lattice points are its vertices, that
    is, when its boundary and interior counts (``counts``) add up to the
    vertex count: no point is listed."""
    return sum(p.counts[1:]) == len(p.vertices)


# ---------------------------------------------------------------------------
# stacked ("Nakajima") polytopes in dimension <= 2
# ---------------------------------------------------------------------------


def is_nakajima(p: LatticePolytope) -> bool:
    """Equivalence to an inductively stacked polytope (dimension <= 2 only).

    Points and lattice segments are always stacked.  In the plane a stacked
    polygon is unimodularly the strip shape {0 <= x <= w, 0 <= y <= l(x)}
    with l integral affine: some edge ab faces a parallel edge (in a
    triangle, a vertex) at lattice distance w from the line ab, and both
    edges joining the two sides have lattice length w.  For then, with ab
    on x = 0 and the far side on x = w, each joining edge rises by a
    multiple of w, so one integer shear makes the lower one horizontal and
    the upper one integral; conversely the strip shape has these sides.  It
    has at most four vertices.
    """
    if p.dimension > 2:
        raise ClassifyError("out of scope: stacked-polytope test only below dimension 3")
    if p.dimension == 2 and p.ambient_rank != 2:
        raise ClassifyError("planar polytopes must be given in rank-2 coordinates")
    if p.dimension < 2:
        return True
    v = p.vertices
    n = len(v)
    if n > 4:
        return False
    for i in range(n):
        # the far side c..d: the opposite vertex of a triangle, the opposite edge of a quadrilateral
        a, b, c, d = v[i], v[(i + 1) % n], v[(i + 2) % n], v[i - 1]
        t = _turn(a, b, c)  # the lattice length of ab times the lattice distance w of c from its line
        if t == _turn(a, b, d) and lattice_length(b, c) == t // lattice_length(a, b) == lattice_length(d, a):
            return True
    return False


def lri_general_section(c: Cone) -> int:
    """Invariant of a general hyperplane section through the singular point.

    Defined here only for the non-smooth rank-3 Gorenstein case with
    embedding dimension at least five, where it equals edim - 1; the two
    low values correspond to analytic normal forms outside this toolkit.
    """
    if c.lattice_rank != 3 or not c.is_full_dimensional:
        raise ClassifyError("section invariant requires a full-dimensional rank-3 cone")
    gd = gorenstein_data(c)
    if gd is None or gd[1] != 1:
        raise ClassifyError("section invariant requires a Gorenstein cone")
    if is_basic(c):
        raise ClassifyError("section invariant undefined for a smooth cone")
    edim = embedding_dimension(c)
    if edim < 5:
        raise ClassifyError("embedding dimension below five: analytic cases out of scope")
    return edim - 1


@dataclass(frozen=True)
class CoverCertificate:
    """Sublattice data of an index-one cover: basis columns and the index."""

    sublattice_basis: IntMatrix
    index: int


def index_one_cover(c: Cone) -> tuple[Cone, CoverCertificate]:
    """Re-coordinatize the cone over the sublattice where the grading is integral.

    For a Q-Gorenstein cone of index ell > 1 the sublattice
    {n : <m, n> integral} has index ell; over it the same real cone is
    Gorenstein.  Index-one input is rejected.  A generator g is solved in
    the sublattice basis B as adj(B) g / det(B), refused unless det(B)
    divides it.  The cover's grading is solved, to check that it has index
    one, and kept on the cover.
    """
    gd = gorenstein_data(c)
    if gd is None:
        raise ClassifyError("index-one cover requires a Q-Gorenstein cone")
    m, index = gd
    if index == 1:
        raise ClassifyError("already index one")
    rank = c.lattice_rank
    cleared = [int(x * index) for x in m.coords]
    kernel = integer_kernel(IntMatrix(((*cleared, -index),)))
    basis_vecs = [LatticeVector(v.coords[:rank]) for v in kernel]
    b_cols = IntMatrix(tuple(zip(*(v.coords for v in basis_vecs))))
    det, cols = adjugate(b_cols.rows)
    if abs(det) != index:
        raise ClassifyError("sublattice index mismatch while building the cover")
    gens = []
    for g in c.generators:
        num = [sum(map(operator.mul, row, g.coords)) for row in zip(*cols)]
        if any(x % det for x in num):
            raise ClassifyError("generator not in the grading sublattice")
        gens.append(LatticeVector(tuple(x // det for x in num)))
    cover = make_cone(gens)
    new_gd = gorenstein_data(cover)
    if new_gd is None or new_gd[1] != 1:
        raise ClassifyError("cover failed to be Gorenstein of index one")
    return cover, CoverCertificate(sublattice_basis=b_cols, index=index)
