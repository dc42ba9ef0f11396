import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from toresolve import hilbert
from toresolve.classify import (
    ClassifyError,
    LatticePolytope,
    _grading_slab_points,
    classify,
    convex_hull_2d,
    gorenstein_data,
    height_one_polytope,
    index_one_cover,
    is_elementary,
    is_nakajima,
    lri_general_section,
)
from toresolve.cones import ConeError, dual_cone, faces, make_cone
from toresolve.hilbert import _to_sublattice
from toresolve.lattice import Covector, IntMatrix, LatticeVector, rational_solve
from toresolve.resolve3d import PolygonComplex, blowup_curve_phase, canonical_modification, crepant_fixed_point_phase

from conftest import (
    box_lattice_points,
    box_slab_points,
    c3_hulls,
    fraction_rank,
    gauss_jordan_solve,
    gorenstein_cone_over,
    nakajima_construction_oracle,
    random_pointed_cone,
    random_polygon,
    random_rank3_cones,
    unimodular_from_ops,
)


def V(*coords):
    return LatticeVector(tuple(coords))


FIG_CONE = [V(-3, 3, 1), V(3, 1, 1), V(0, -3, 1)]


def test_gorenstein_data_examples():
    m, index = gorenstein_data(make_cone(FIG_CONE))
    assert m == Covector((0, 0, 1)) and index == 1
    square = make_cone([V(0, 0, 1), V(1, 0, 1), V(0, 1, 1), V(1, 1, 1)])
    m, index = gorenstein_data(square)
    assert m == Covector((0, 0, 1)) and index == 1
    # grading of an index-two cone (the spec's (1,1/2) interpolant belongs
    # to pos{(1,0),(-1,4)}; for pos{(1,0),(1,2)} the interpolant is (1,0))
    m, index = gorenstein_data(make_cone([V(1, 0), V(-1, 4)]))
    assert m == Covector((1, Fraction(1, 2))) and index == 2
    m, index = gorenstein_data(make_cone([V(1, 0), V(1, 2)]))
    assert m == Covector((1, 0)) and index == 1


def test_gorenstein_data_matches_gauss_jordan():
    """The grading equals the Gauss-Jordan solution of <m, g> = 1 on
    seeded random pointed cones of rank 2 and 3 and on rank-4 cube cones,
    None included."""
    rng = random.Random(909)
    kinds = {"index one": 0, "index > 1": 0, "not Q-Gorenstein": 0}
    ranks = set()
    checked = 0
    while checked < 400:
        rank = rng.choice((2, 3, 3))
        c = random_pointed_cone(rng, rank, coord_bound=4, max_gens=6)
        if c is None or not (c.is_pointed and c.is_full_dimensional):
            continue
        checked += 1
        ranks.add(rank)
        gd = gorenstein_data(c)
        sol = gauss_jordan_solve(list(c.generators), [1] * len(c.generators))
        if sol is None:
            assert gd is None, c
            kinds["not Q-Gorenstein"] += 1
            continue
        assert gd == (sol, sol.denominator), c
        assert [type(x) for x in gd[0].coords] == [type(x) for x in sol.coords]
        kinds["index one" if gd[1] == 1 else "index > 1"] += 1
    assert ranks == {2, 3} and min(kinds.values()) >= 20, kinds
    # rank-4 cones over the cube [-1, 1]^3 (one corner raised or not): the
    # first four generators lie on a facet, so later ones enter the solve
    for h, corner in itertools.product((1, 2), repeat=2):
        cube = itertools.product((-1, 1), repeat=3)
        c = make_cone([V(*p, h * corner if p == (1, 1, 1) else h) for p in cube])
        assert IntMatrix(tuple(g.coords for g in c.generators[:4])).det() == 0
        sol = gauss_jordan_solve(list(c.generators), [1] * len(c.generators))
        assert gorenstein_data(c) == (None if sol is None else (sol, sol.denominator)), c


def test_gorenstein_data_absent():
    c = make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(2, 2, -1)])
    assert len(c.generators) == 4
    assert gorenstein_data(c) is None


def test_grading_needs_a_full_dimensional_cone():
    """A cone of lower dimension has no unique grading: gorenstein_data
    refuses it by name, and the kept property raises a domain error."""
    flat = make_cone([V(1, 0, 0), V(1, 1, 0)])
    with pytest.raises(ClassifyError, match="full-dimensional"):
        gorenstein_data(flat)
    with pytest.raises(ConeError, match="linearly independent"):
        flat.grading


def test_classify_running_example():
    r = classify(make_cone([V(1, 0), V(4, 5)]))
    assert not r.smooth
    assert r.q_factorial
    assert r.q_gorenstein == (Covector((1, Fraction(-3, 5))), 5)
    assert r.log_terminal and not r.canonical and not r.terminal
    assert r.embedding_dim == 6
    assert r.rational


def test_classify_fig_cone():
    r = classify(make_cone(FIG_CONE))
    assert r.gorenstein and r.q_gorenstein[1] == 1
    assert r.canonical and not r.terminal  # 19 lattice points at height one
    assert r.embedding_dim == 14
    assert r.lci is False


def test_classify_basic_cone_everything_true():
    r = classify(make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]))
    assert r.smooth and r.q_factorial and r.gorenstein
    assert r.terminal and r.canonical and r.log_terminal
    assert r.lci is True and r.embedding_dim == 3


def test_classify_implication_chain(rng):
    from conftest import random_pointed_cone

    checked = 0
    while checked < 30:
        c = random_pointed_cone(rng, rng.choice([2, 3]), coord_bound=3)
        if c is None or not c.is_full_dimensional:
            continue
        checked += 1
        r = classify(c)
        if r.smooth:
            assert r.terminal
        if r.terminal:
            assert r.canonical
        if r.canonical:
            assert r.log_terminal
        if r.gorenstein:
            assert r.q_gorenstein is not None and r.q_gorenstein[1] == 1
        assert r.log_terminal == (r.q_gorenstein is not None)
        assert r.rational


def test_classify_invariant_under_unimodular_maps(rng):
    from conftest import random_pointed_cone, unimodular_2x2

    mats = [m for m in unimodular_2x2(2)]
    checked = 0
    while checked < 10:
        c = random_pointed_cone(rng, 2, coord_bound=4)
        if c is None or not c.is_full_dimensional:
            continue
        checked += 1
        r = classify(c)
        (a, b), (d, e) = mats[rng.randrange(len(mats))]
        mapped = make_cone(
            [V(a * g.coords[0] + b * g.coords[1], d * g.coords[0] + e * g.coords[1]) for g in c.generators]
        )
        r2 = classify(mapped)
        assert (r.smooth, r.q_factorial, r.gorenstein, r.terminal, r.canonical,
                r.log_terminal, r.embedding_dim) == (
            r2.smooth, r2.q_factorial, r2.gorenstein, r2.terminal, r2.canonical,
            r2.log_terminal, r2.embedding_dim)
        if r.q_gorenstein:
            assert r.q_gorenstein[1] == r2.q_gorenstein[1]


def test_low_dimensional_cone_classified_through_span():
    # a 2-dimensional singular cone embedded in rank 3
    c = make_cone([V(1, 0, 0), V(4, 5, 0)])
    r = classify(c)
    assert not r.smooth and r.q_factorial and r.embedding_dim == 6


def _oracle_polytopes(rng):
    """Points, lattice segments, thin (width-one, sheared) polygons and
    polygons of 3-7 vertices with negative coordinates."""
    out = []
    for _ in range(100):
        out.append(LatticePolytope.from_points([(rng.randint(-9, 9), rng.randint(-9, 9))]))
        a, d = (rng.randint(-9, 9), rng.randint(-9, 9)), (rng.randint(-3, 3), rng.randint(-3, 3))
        out.append(LatticePolytope.from_points([(a[0] + t * d[0], a[1] + t * d[1]) for t in (0, rng.randint(1, 4))]))
    for _ in range(300):
        k = rng.randint(-3, 3)
        strip = [(rng.randint(-9, 9), rng.randint(0, 1)) for _ in range(rng.randint(3, 5))]
        pts = [(x + k * y, y) if rng.random() < 0.5 else (y, x + k * y) for x, y in strip]
        out.append(LatticePolytope.from_points(pts))
    for _ in range(600):
        cx, cy, r = rng.randint(-9, -1), rng.randint(-9, 3), rng.randint(1, 6)
        pts = [(cx + rng.randint(-r, r), cy + rng.randint(-r, r)) for _ in range(rng.randint(3, 14))]
        out.append(LatticePolytope.from_points(pts))
    return out


def test_lattice_points_match_box_scan_oracle():
    rng = random.Random(6)
    polytopes = _oracle_polytopes(rng)
    for p in polytopes:
        box = box_lattice_points(p)
        assert p.lattice_points() == box, p
        boundary = set(p.boundary_points())
        assert p.interior_points() == [q for q in box if q not in boundary], p
    dims = {p.dimension for p in polytopes}
    sizes = {len(p.vertices) for p in polytopes if p.dimension == 2}
    assert dims == {0, 1, 2} and set(range(3, 8)) <= sizes, (dims, sizes)
    assert any(min(v[1] for v in p.vertices) < 0 and p.dimension == 2 for p in polytopes)


def test_from_points_refuses_non_integer_entries():
    with pytest.raises(ClassifyError, match="point entry 0.5 is not an integer"):
        LatticePolytope.from_points([(0.5, 0), (1, 0), (0, 1)])
    with pytest.raises(ClassifyError, match=r"point entry Fraction\(1, 2\)"):
        LatticePolytope.from_points([(0, 0), (1, Fraction(1, 2)), (0, 1)])
    with pytest.raises(ClassifyError, match=r"point entry Fraction\(1, 1\)"):
        LatticePolytope.from_points([(0, 0), (Fraction(1), 0), (0, 1)])
    p = LatticePolytope.from_points([(False, 0), (True, 0), (0, True)])
    assert p.vertices == ((0, 0), (1, 0), (0, 1))
    assert all(type(x) is int for v in p.vertices for x in v)


def test_cached_points_are_copies_and_keep_equality():
    p = LatticePolytope.from_points([(-2, -1), (3, 0), (1, 4), (-2, 3)])
    for method in (p.lattice_points, p.interior_points, p.edge_interior_points):
        first = method()
        assert first
        expected = list(first)
        first.append((99, 99))
        first[0] = (-99, -99)
        assert method() == expected
    fresh = LatticePolytope(p.vertices)
    assert not fresh.__dict__.keys() & {"_points", "_interior", "_edge_interior"}
    assert p.__dict__.keys() >= {"_points", "_interior", "_edge_interior"}
    assert p == fresh and hash(p) == hash(fresh)
    assert {p: 1}[fresh] == 1


def test_is_elementary_examples():
    assert is_elementary(LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)]))
    assert is_elementary(LatticePolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert not is_elementary(LatticePolytope.from_points([(0, 0), (2, 0), (0, 2)]))


def _criterion5_shapes() -> list[tuple[tuple[int, int], ...]]:
    """The 1,554 triangles and quadrilaterals on the points of [0, 3]^2."""
    pts = list(itertools.product(range(4), repeat=2))
    return [comb for n in (3, 4) for comb in itertools.combinations(pts, n) if len(convex_hull_2d(list(comb))) == n]


def test_is_elementary_matches_point_list_oracle():
    """Pick's reading of ``is_elementary`` (primitive edges, doubled area the
    vertex count less two) agrees with the point-list definition, the box
    scan's points being the vertices, on the criterion-5 shapes, the C3
    hulls and the oracle polytopes' points, segments and thin polygons; it
    lists no point, so a unimodular triangle with a 10^30 coordinate is
    decided at once."""
    polytopes = [LatticePolytope.from_points(shape) for shape in _criterion5_shapes()]
    polytopes += [LatticePolytope.from_points(hull) for hull in c3_hulls()]
    polytopes += _oracle_polytopes(random.Random(31))
    seen = set()
    for p in polytopes:
        fresh = LatticePolytope(p.vertices)
        assert is_elementary(fresh) == (set(box_lattice_points(p)) == set(p.vertices)), p
        assert "_points" not in vars(fresh), p
        seen.add((p.dimension, is_elementary(p)))
    assert seen == {(0, True), (1, True), (1, False), (2, True), (2, False)}, seen
    huge = 10**30
    assert is_elementary(LatticePolytope.from_points([(0, 0), (1, 0), (huge, 1)]))
    # the shear (x + 10^30 y, y) of the triangle (0, 0), (2, 1), (1, 2), whose edges are primitive
    assert not is_elementary(LatticePolytope.from_points([(0, 0), (2 + huge, 1), (1 + 2 * huge, 2)]))
    assert is_elementary(LatticePolytope.from_points([(0, 0, 0), (1, huge, 2)]))
    assert not is_elementary(LatticePolytope.from_points([(0, 0, 0), (2, huge, 2)]))


class _WalkReached(Exception):
    """Raised by a stubbed lattice walk."""


def test_closed_forms_walk_no_slab(monkeypatch):
    """With the grading-slab walk and the lower-point walk stubbed to raise,
    classify still answers on every criterion-5 shape (index one in rank 3:
    canonical, and terminal exactly when the box scan finds no lattice point
    of the polygon but its vertices), on every rank-2 cone
    cone(e2, n e1 - q e2) with coprime 0 <= q < n <= 60 (canonical exactly
    when q = n - 1, terminal exactly when n = 1), and on plane cones and
    rays in rank 3; a rank-3 cone of index two and the rank-4 cube cone
    still reach the walk.  The embedding dimension, which the flags do not
    need, is stubbed too."""

    def refuse(*args):
        raise _WalkReached

    module = sys.modules["toresolve.classify"]
    monkeypatch.setattr(module, "_grading_slab_points", refuse)
    monkeypatch.setattr(hilbert, "_lower_points", refuse)
    monkeypatch.setattr(module, "embedding_dimension", lambda c: None)
    for shape in _criterion5_shapes():
        r = classify(make_cone([V(x, y, 1) for x, y in shape]))
        polygon = LatticePolytope.from_points(shape)
        assert r.canonical and r.terminal == (set(box_lattice_points(polygon)) == set(polygon.vertices)), shape
    for n in range(1, 61):
        for q in range(n):
            if math.gcd(n, q) == 1:
                r = classify(make_cone([V(0, 1), V(n, -q)]))
                assert (r.canonical, r.terminal) == (q == n - 1, n == 1), (n, q)
                assert r.log_terminal and r.gorenstein == r.canonical and r.smooth == r.terminal, (n, q)
    plane = {
        ((1, 0, 0), (1, 2, 0)): (True, False),  # A1 in its span lattice
        ((1, 0, 0), (-1, 3, 0)): (False, False),  # 1/3(1, 1), index three
        ((1, 0, 0), (0, 1, 0)): (True, True),
        ((1, 2, 3),): (True, True),  # a ray is smooth
    }
    for gens, flags in plane.items():
        r = classify(make_cone([V(*g) for g in gens]))
        assert (r.canonical, r.terminal) == flags, gens
    walked = [
        [V(1, 0, 0), V(0, 1, 0), V(1, 1, 2)],
        [V(*p, 1) for p in itertools.product((-1, 1), repeat=3)],
    ]
    for gens in walked:
        with pytest.raises(_WalkReached):
            classify(make_cone(gens))


def test_classify_flags_invariant_under_gl3z_on_criterion5_shapes(monkeypatch):
    """Every flag of each criterion-5 shape's cone is that of a seeded
    GL(3,Z) image of it; at least half of the images move the grading off
    (0, 0, 1).  The embedding dimension is stubbed: it is the dual Hilbert
    basis, whose invariance ``test_hilbert`` checks."""
    monkeypatch.setattr(sys.modules["toresolve.classify"], "embedding_dimension", lambda c: None)
    rng = random.Random(20261021)
    moved_gradings = 0
    shapes = _criterion5_shapes()
    for shape in shapes:
        ops = [(tuple(rng.sample(range(3), 3)), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(1, 4))]
        u = unimodular_from_ops(ops, rng.random() < 0.5)
        gens = [V(x, y, 1) for x, y in shape]
        r, moved = classify(make_cone(gens)), classify(make_cone([u.apply(g) for g in gens]))
        assert (r.smooth, r.q_factorial, r.gorenstein, r.terminal, r.canonical, r.log_terminal, r.lci) == (
            moved.smooth, moved.q_factorial, moved.gorenstein, moved.terminal, moved.canonical,
            moved.log_terminal, moved.lci,
        ), (shape, ops)
        assert moved.q_gorenstein[1] == 1, (shape, ops)
        moved_gradings += moved.q_gorenstein[0] != r.q_gorenstein[0]
    assert 2 * moved_gradings >= len(shapes), moved_gradings


def test_nakajima_spot_checks_against_oracle():
    """The stacked-polytope decision agrees with the literal construction oracle.

    Note the doubled basic triangle: it maps to {0<=x<=2, 0<=y<=x} by the
    shear (x, y) -> (x + y, y), so it is stacked (the chart over it is the
    hypersurface z1 z2 z3 = z4^2); the spec's original expected value for it
    was wrong and has been corrected, see the criterion-6 entry in CHANGES.md.
    """
    basic = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    square = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    doubled = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2)])
    for p in (basic, square, doubled):
        assert is_nakajima(p) == nakajima_construction_oracle(p)
    assert is_nakajima(basic)
    assert is_nakajima(square)
    assert is_nakajima(doubled)


def test_nakajima_negative_cases():
    # an elementary quadrilateral that is not a parallelogram-like stack
    p = LatticePolytope.from_points([(0, 0), (2, 0), (3, 1), (0, 2)])
    assert is_nakajima(p) == nakajima_construction_oracle(p)
    # polygons with five or more vertices are never stacked
    penta = LatticePolytope.from_points([(-2, 2), (-1, 2), (2, 1), (2, 0), (0, -2)])
    assert not is_nakajima(penta)


def test_nakajima_oracle_agreement_random(rng):
    checked = 0
    while checked < 25:
        p = random_polygon(rng, bound=2, max_pts=5)
        if p is None:
            continue
        checked += 1
        assert is_nakajima(p) == nakajima_construction_oracle(p), p.vertices


def test_nakajima_low_dimensions_and_out_of_scope():
    assert is_nakajima(LatticePolytope.from_points([(3, 4)]))
    assert is_nakajima(LatticePolytope.from_points([(0, 0), (3, 0)]))
    with pytest.raises(ClassifyError):
        is_nakajima(LatticePolytope(vertices=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))))


def _polytope_rank(p: LatticePolytope) -> int:
    v0 = p.vertices[0]
    return fraction_rank([tuple(x - y for x, y in zip(v, v0)) for v in p.vertices[1:]])


def _cone_rank(c) -> int:
    return fraction_rank([g.coords for g in c.generators] + [l.coords for l in c.lineality])


def test_stored_dimensions_match_rank_oracle():
    rank3 = LatticePolytope(vertices=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert rank3.dimension == _polytope_rank(rank3) == 3
    # degenerate inputs: points, segments, collinear triples, repeated points
    small = [[(2, -1)], [(2, -1), (2, -1)], [(0, 0), (3, 6)], [(0, 0), (1, 2), (3, 6)], [(5, 1), (-1, 1), (2, 1)],
             [(0, 4), (0, -2), (0, 1), (0, 4)], [(1, 2, 3)], [(1, 2, 3), (1, 2, 3)], [(1, 2, 3), (-4, 0, 7)]]
    for pts in small:
        p = LatticePolytope.from_points(pts)
        assert p.dimension == _polytope_rank(p) == min(len(set(pts)), 2) - 1, pts
    # the criterion-3 corpus: 50 random hulls in [-4,4]^2, resolved to their cells
    rng = random.Random(31415926)
    hulls = 0
    while hulls < 50:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 6))]
        if len(convex_hull_2d(pts)) < 3:
            continue
        hulls += 1
        hull = LatticePolytope.from_points(pts)
        cone = gorenstein_cone_over(hull)
        cone_faces = faces(cone)
        for c in cone_faces + [dual_cone(cone), dual_cone(cone_faces[1])]:
            assert c.dim == _cone_rank(c), c
        pc = blowup_curve_phase(crepant_fixed_point_phase(PolygonComplex.initial(hull)))
        for cell in pc.cells:
            pieces = [cell] + [LatticePolytope.from_points(e) for e in cell.edges()]
            pieces += [LatticePolytope.from_points([v]) for v in cell.vertices]
            for p in pieces:
                assert p.dimension == _polytope_rank(p), p
            cell_cone = gorenstein_cone_over(cell)
            assert cell_cone.dim == _cone_rank(cell_cone) == 3


def test_lri_general_section():
    assert lri_general_section(make_cone(FIG_CONE)) == 13
    c = make_cone([V(0, 0, 1), V(2, 0, 1), V(0, 2, 1)])
    # the doubled triangle has embedding dimension 4 < 5: analytic case rejected
    with pytest.raises(ClassifyError):
        lri_general_section(c)
    with pytest.raises(ClassifyError):
        lri_general_section(make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]))


def test_lri_derived_example():
    from toresolve.hilbert import embedding_dimension

    c = make_cone([V(0, 0, 1), V(3, 0, 1), V(0, 3, 1)])
    e = embedding_dimension(c)
    if e >= 5:
        assert lri_general_section(c) == e - 1


def test_index_one_cover_examples():
    c = make_cone([V(1, 0), V(4, 5)])
    cover, cert = index_one_cover(c)
    assert cert.index == 5
    assert abs(cert.sublattice_basis.det()) == 5
    assert gorenstein_data(cover)[1] == 1
    c2 = make_cone([V(1, 0), V(-1, 4)])
    cover2, cert2 = index_one_cover(c2)
    assert cert2.index == 2 and gorenstein_data(cover2)[1] == 1
    with pytest.raises(ClassifyError, match="already index one"):
        index_one_cover(make_cone([V(1, 0), V(1, 2)]))


def test_index_one_cover_preserves_real_cone():
    c = make_cone([V(1, 0), V(4, 5)])
    cover, cert = index_one_cover(c)
    b = cert.sublattice_basis
    mapped = make_cone([b.apply(g) for g in cover.generators])
    assert mapped == c


def test_cover_generators_and_polygon_points_match_solve_and_inverse():
    """``index_one_cover`` solves the generators through one adjugate of the
    sublattice basis, and ``height_one_polytope`` maps them through one
    adjugate of the adapted basis; the covers and polygons equal those of
    ``rational_solve`` and ``inverse_unimodular``, on the C3 hulls, on the
    canonical pieces of the conftest cones and their covers, and on seeded
    rank-2 cones."""
    rng = random.Random(20261020)
    graded = [make_cone([V(x, y, 1) for x, y in hull]) for hull in c3_hulls()]
    for c in random_rank3_cones(27182818, 4, 300):
        graded += canonical_modification(c).maximal_cones
    rank2 = [random_pointed_cone(rng, 2, 6) for _ in range(200)]
    graded += [c for c in rank2 if c is not None and c.is_full_dimensional]
    covers = {2: 0, 3: 0}
    for c in graded:
        m, index = gorenstein_data(c)
        if index > 1:
            cover, cert = index_one_cover(c)
            rows = [LatticeVector(r) for r in cert.sublattice_basis.rows]
            solved = [rational_solve(rows, list(g.coords)).integral_vector() for g in c.generators]
            assert cover.generators == tuple(sorted(solved)), c
            covers[c.lattice_rank] += 1
            c, m = cover, cover.grading[0]
        polytope, basis = height_one_polytope(c, m)
        inv = basis.inverse_unimodular()
        mapped = [inv.apply(g).coords for g in c.generators]
        assert all(x[-1] == 1 for x in mapped), c
        assert polytope == LatticePolytope.from_points([x[:-1] for x in mapped]), c
    assert min(covers.values()) >= 50, covers


def test_terminal_gorenstein_iff_elementary_small_sample():
    pts = list(itertools.product(range(3), repeat=2))
    for comb in itertools.combinations(pts, 3):
        if len(convex_hull_2d(list(comb))) != 3:
            continue
        cone = make_cone([V(p[0], p[1], 1) for p in comb])
        r = classify(cone)
        assert r.terminal == is_elementary(LatticePolytope.from_points(comb))


def test_height_one_polytope_fig_cone_identity():
    c = make_cone(FIG_CONE)
    m, _ = gorenstein_data(c)
    p, basis = height_one_polytope(c, m)
    assert basis == IntMatrix.identity(3)
    assert set(p.vertices) == {(-3, 3), (3, 1), (0, -3)}


# the cones of the CI's multi-cone classify jobs in ranks 3, 4 and 5
DD_CONES = [
    [[1, 0, 0], [0, 1, 0], [1, 1, 3], [1, 1, 1], [2, 0, 0]],
    [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1], [0, 0, 1]],
    [[1, 2, 0], [2, -1, 0], [3, 1, 0]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 2], [1, 1, 1, 1]],
    [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 0, 1], [2, 2, 0, 2]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 1, 1, 1, 2], [1, 1, 0, 0, 0]],
    [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [1, 1, 1, 0, 1]],
]


def test_slab_walk_matches_box_oracle(monkeypatch):
    """On a Q-Gorenstein cone the lower-point walk lists exactly the
    primitive points of the box scan's grading slab, and classify's flags
    are the box scan's: canonical when no slab point lies below grading one,
    terminal when moreover the slab is the generators.  Non-primitive slab
    points are met, only in cones that are not canonical.  On the criterion-5
    shapes, the C3 hulls, both conftest corpora, seeded rank-2, 4 and 5
    draws, the rank-4 cube cone and the CI's multi-cone classify cones
    (low-dimensional ones in their span lattice).  The embedding dimension,
    which the slab does not decide, is stubbed: the dual Hilbert bases of
    these cones would take most of a minute."""
    monkeypatch.setattr(sys.modules["toresolve.classify"], "embedding_dimension", lambda c: None)
    pts = list(itertools.product(range(4), repeat=2))
    shapes = [comb for n in (3, 4) for comb in itertools.combinations(pts, n) if len(convex_hull_2d(list(comb))) == n]
    assert len(shapes) == 1554
    cones = [make_cone([V(x, y, 1) for x, y in shape]) for shape in shapes]
    cones += [make_cone([V(x, y, 1) for x, y in hull]) for hull in c3_hulls()]
    cones += random_rank3_cones(27182818, 4, 300) + random_rank3_cones(20261019, 4, 300)
    rng = random.Random(20261021)
    for rank, bound, count in ((2, 6, 200), (4, 2, 120), (5, 1, 120)):
        drawn = (random_pointed_cone(rng, rank, bound, max_gens=rank + 1) for _ in range(count))
        cones += [c for c in drawn if c is not None]
    cones.append(make_cone([V(*p, 1) for p in itertools.product((-1, 1), repeat=3)]))
    cones += [make_cone([V(*g) for g in gens]) for gens in DD_CONES]
    seen = {"graded": 0, "canonical": 0, "terminal": 0, "non-primitive": 0}
    for c in cones:
        r = classify(c)
        if not c.is_full_dimensional:
            c = _to_sublattice(c)[0]
        if c.grading is None:
            assert not (r.canonical or r.terminal), c
            continue
        m = c.grading[0]
        box = box_slab_points(c)
        assert _grading_slab_points(c) == {v.coords for v in box if math.gcd(*v.coords) == 1}, c
        canonical = all(m.pair(v) == 1 for v in box)
        assert r.canonical == canonical, c
        assert r.terminal == (canonical and {v.coords for v in box} == {g.coords for g in c.generators}), c
        nonprimitive = any(math.gcd(*v.coords) > 1 for v in box)
        assert not (nonprimitive and canonical), c
        seen["graded"] += 1
        seen["canonical"] += canonical
        seen["terminal"] += r.terminal
        seen["non-primitive"] += nonprimitive
    assert seen["graded"] >= 2000 and seen["graded"] - seen["canonical"] >= 200, seen
    assert seen["terminal"] >= 200 and seen["non-primitive"] >= 100, seen
