"""Acceptance suite: the eight exit criteria, one test (and one printed
PASS/FAIL line) per criterion.  All comparisons are exact; no tolerances.

Criterion 6 was first specified with the doubled basic triangle
conv{(0,0),(2,0),(0,2)} as non-stacked.  That value was wrong: the unimodular
shear (x,y) -> (x+y, y) maps the triangle onto {0 <= y <= x <= 2}, the stacked
construction over [0,2] with height function l(x) = x, and the chart over it
is the hypersurface z1 z2 z3 = z4^2, a complete intersection (Nakajima: a
Gorenstein toric singularity is l.c.i. exactly when its polytope is stacked).
The assertion now checks the correct value, and the test proves it by both
witnesses without going through is_nakajima.
"""

import itertools
import random

from toresolve.classify import (
    LatticePolytope,
    classify,
    convex_hull_2d,
    gorenstein_data,
    is_elementary,
    is_nakajima,
    lri_general_section,
)
from toresolve.cones import is_basic, make_cone
from toresolve.divisors import discrepancies, is_strictly_upper_convex
from toresolve.hilbert import embedding_dimension, hilbert_basis, toric_relations
from toresolve.lattice import LatticeVector
from toresolve.resolve2d import cf_expansion, minimal_resolution
from toresolve.resolve3d import (
    PolygonComplex,
    blowup_curve_phase,
    blowup_fixed_point,
    completions,
    crepant_fixed_point_phase,
    resolve,
)

from conftest import (
    _is_literal_stacked,
    box_hilbert_oracle,
    nakajima_construction_oracle,
    random_pointed_cone,
    sequential_fixed_point_phase,
)


def V(*coords):
    return LatticeVector(tuple(coords))


def report(criterion: int, label: str):
    print(f"ACCEPTANCE {criterion}: PASS  {label}")


def test_criterion_1_two_dimensional_golden():
    c = make_cone([V(1, 0), V(4, 5)])
    assert embedding_dimension(c) == 6

    dual = make_cone([V(0, 1), V(5, -4)])
    members = [m.coords for m in hilbert_basis(dual).members]
    assert len(members) == 6
    assert (0, 1) in members and (5, -4) in members
    for i in range(1, 5):
        assert (i, 1 - i) in members

    assert cf_expansion(5, 4).terms == (2, 2, 2, 2)

    fan, exceptional = minimal_resolution(c)
    assert len(fan.maximal_cones) == 2
    assert all(is_basic(mc) for mc in fan.maximal_cones)
    assert [(u.coords, b) for u, b in exceptional] == [((1, 1), -5)]

    assert len(toric_relations(c, 2)) == 10
    report(1, "embedding dim 6, dual basis k0..k5, 5/4=[2,2,2,2], -5 curve, 10 binomials")


def test_criterion_2_three_dimensional_golden():
    cone = make_cone([V(-3, 3, 1), V(3, 1, 1), V(0, -3, 1)])
    r = classify(cone)
    assert r.gorenstein and r.q_gorenstein[1] == 1
    assert r.embedding_dim == 14
    assert lri_general_section(cone) == 13

    triangle = LatticePolytope.from_points([(-3, 3), (3, 1), (0, -3)])
    pc1 = blowup_fixed_point(PolygonComplex.initial(triangle), 0)
    pentagon = LatticePolytope.from_points(
        [(-2, 2), (-1, 2), (2, 1), (2, 0), (0, -2)]
    )
    assert pentagon in pc1.cells

    pc = crepant_fixed_point_phase(PolygonComplex.initial(triangle))
    pc = blowup_curve_phase(pc)
    assert pc.census()["unit_parallelograms"] == 3
    comps = list(completions(pc))
    assert len(comps) == 8
    for fan, psi in comps:
        assert is_strictly_upper_convex(psi)

    final, trace = resolve(cone)
    assert len(final.rays()) == 19
    assert len(final.maximal_cones) == 30
    assert all(is_basic(mc) for mc in final.maximal_cones)
    report(2, "Gorenstein idx 1, edim 14, LRI 13, Fig.3 pentagon, 3 ODPs, 8 projective completions, 19/30 census")


def test_criterion_3_crepancy_suite():
    rng = random.Random(31415926)
    count = 0
    while count < 50:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 6))]
        hull = convex_hull_2d(pts)
        if len(hull) < 3:
            continue
        cone = make_cone([V(p[0], p[1], 1) for p in hull])
        fan, trace = resolve(cone)
        m = gorenstein_data(cone)[0]
        for ray in fan.rays():
            assert m.pair(ray) == 1, (hull, ray.coords)
        for step in trace.steps:
            if step.phase != "canonical" and step.discrepancy is not None:
                assert step.discrepancy.is_crepant
        assert discrepancies(cone, fan).is_crepant
        count += 1
    report(3, "50 random Gorenstein cones: every added ray at level one, all reports zero")


def test_criterion_4_hilbert_oracle_suite():
    rng = random.Random(27182818)
    count = 0
    while count < 100:
        c = random_pointed_cone(rng, rng.choice([2, 3]), coord_bound=6)
        if c is None or not c.is_full_dimensional:
            continue
        basis = list(hilbert_basis(c).members)
        assert basis == box_hilbert_oracle(c), [g.coords for g in c.generators]
        for leave_out in basis:
            others = [b for b in basis if b != leave_out]
            assert not _nonneg_combination(c, leave_out, others)
        count += 1
    report(4, "100 random pointed cones: basis equals box oracle and is minimal")


def _nonneg_combination(cone, target, generators):
    seen = set()
    stack = [target]
    while stack:
        v = stack.pop()
        if v.is_zero:
            return True
        if v.coords in seen:
            continue
        seen.add(v.coords)
        for g in generators:
            w = v - g
            if cone.contains(w):
                stack.append(w)
    return False


def test_criterion_5_classifier_consistency():
    pts = list(itertools.product(range(4), repeat=2))
    shapes = []
    for comb in itertools.combinations(pts, 3):
        if len(convex_hull_2d(list(comb))) == 3:
            shapes.append(comb)
    for comb in itertools.combinations(pts, 4):
        if len(convex_hull_2d(list(comb))) == 4:
            shapes.append(comb)
    for comb in shapes:
        cone = make_cone([V(p[0], p[1], 1) for p in comb])
        r = classify(cone)
        polytope = LatticePolytope.from_points(comb)
        assert r.gorenstein
        assert r.terminal == is_elementary(polytope), comb
        assert r.smooth == is_basic(cone), comb
        assert r.q_factorial == cone.is_simplicial, comb
        if r.smooth:
            assert r.terminal
        if r.terminal:
            assert r.canonical
        if r.canonical:
            assert r.log_terminal
        assert r.q_gorenstein is not None and r.q_gorenstein[1] == 1
        assert r.rational
    report(5, f"{len(shapes)} lattice triangles/quadrilaterals in [0,3]^2 consistent")


def test_criterion_6_nakajima_spot_checks():
    basic = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    square = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    doubled = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2)])
    assert is_nakajima(basic) and nakajima_construction_oracle(basic)
    assert is_nakajima(square) and nakajima_construction_oracle(square)
    assert is_nakajima(doubled) == nakajima_construction_oracle(doubled)
    # The doubled triangle is stacked; the value first specified for it,
    # non-stacked, was wrong.  Witness 1: the determinant-1 shear (x,y) -> (x+y, y) takes
    # it to the literal stacked form {0 <= y <= x <= 2}.
    (a, b), (c, d) = ((1, 1), (0, 1))
    assert a * d - b * c == 1
    sheared = sorted((a * x + b * y, c * x + d * y) for x, y in doubled.vertices)
    assert sheared == [(0, 0), (2, 0), (2, 2)]
    assert _is_literal_stacked(sheared)
    # Witness 2: the chart is a hypersurface.  The dual Hilbert basis has
    # 3 + 1 members, so the toric ideal is a height-one prime, hence principal;
    # its generator is the single binomial z_a^2 = z_b z_c z_d.
    cone = make_cone([V(x, y, 1) for x, y in doubled.vertices])
    assert embedding_dimension(cone) == 4
    relations = toric_relations(cone, 3)
    assert len(relations) == 1
    sides = sorted((relations[0].left, relations[0].right), key=sum)
    assert sorted(sides[0]) == [0, 0, 0, 2]
    assert sorted(sides[1]) == [0, 1, 1, 1]
    assert all(a == 0 or b == 0 for a, b in zip(*sides))
    assert is_nakajima(doubled), (
        "conv{(0,0),(2,0),(0,2)} is lattice-equivalent to the stacked "
        "polytope {0<=y<=x<=2} via the shear (x,y)->(x+y,y); the chart over "
        "it is the hypersurface z1*z2*z3 = z4^2, a complete intersection"
    )
    report(6, "stacked-polytope spot checks")


def test_criterion_7_order_independence():
    rng = random.Random(16180339)
    instances = [LatticePolytope.from_points([(-3, 3), (3, 1), (0, -3)])]
    while len(instances) < 3:
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5)]
        hull = convex_hull_2d(pts)
        if len(hull) >= 3:
            instances.append(LatticePolytope.from_points(hull))
    for polygon in instances:
        reference = crepant_fixed_point_phase(PolygonComplex.initial(polygon))
        for trial in range(20):
            shuffled = sequential_fixed_point_phase(polygon, random.Random(trial))
            assert shuffled == reference, polygon.vertices
    report(7, "3 instances x 20 random cell orders: identical endpoints")


def test_criterion_8_area_census_conservation():
    rng = random.Random(14142135)
    count = 0
    while count < 12:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 6))]
        hull = convex_hull_2d(pts)
        if len(hull) < 3:
            continue
        polygon = LatticePolytope.from_points(hull)
        cone = make_cone([V(p[0], p[1], 1) for p in hull])
        fan, _ = resolve(cone)
        assert len(fan.rays()) == len(polygon.lattice_points()), hull
        assert len(fan.maximal_cones) == polygon.area2(), hull
        assert all(is_basic(mc) for mc in fan.maximal_cones)
        count += 1
    report(8, "12 random polygons: rays = lattice points, triangles = normalized area")
