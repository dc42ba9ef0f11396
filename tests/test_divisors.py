import random
from fractions import Fraction

import pytest

from toresolve.classify import classify
from toresolve.cones import make_cone, make_fan, star_subdivision
from toresolve.divisors import (
    DivisorError,
    _cone_representative,
    SupportFunction,
    canonical_support,
    discrepancies,
    is_cartier,
    is_strictly_upper_convex,
    qcartier_index,
    with_linear_representatives,
)
from toresolve.lattice import Covector, LatticeVector

from conftest import gauss_jordan_solve, random_independent_generators, random_pointed_cone


def V(*coords):
    return LatticeVector(tuple(coords))


def fan_of(*gen_lists):
    return make_fan([make_cone([V(*g) for g in gens]) for gens in gen_lists])


def test_canonical_support_all_ones():
    f = fan_of([(1, 0), (1, 1)], [(1, 1), (4, 5)])
    psi = canonical_support(f)
    assert psi.ray_values == {(1, 0): 1, (1, 1): 1, (4, 5): 1}


def test_cartier_on_basic_fan():
    f = fan_of([(1, 0), (0, 1)])
    psi = canonical_support(f)
    assert is_cartier(psi)
    assert qcartier_index(psi) == 1


def test_qcartier_indices():
    # A_1 cone: the canonical support interpolates integrally (index one);
    # the genuinely index-two example needs generators off a lattice hyperplane
    assert qcartier_index(canonical_support(fan_of([(1, 0), (1, 2)]))) == 1
    f = fan_of([(1, 0), (-1, 4)])
    psi = with_linear_representatives(canonical_support(f))
    assert qcartier_index(psi) == 2
    assert not is_cartier(psi)
    assert psi.linear_reps[0] == Covector((1, Fraction(1, 2)))


def test_cartier_fig_cone():
    f = fan_of([(-3, 3, 1), (3, 1, 1), (0, -3, 1)])
    psi = with_linear_representatives(canonical_support(f))
    assert is_cartier(psi)
    assert psi.linear_reps[0] == Covector((0, 0, 1))


def test_not_qcartier_on_nonsimplicial_fan():
    square = make_cone([V(0, 0, 1), V(1, 0, 1), V(0, 1, 1), V(1, 1, 1)])
    f = make_fan([square])
    psi = SupportFunction(
        fan=f, ray_values={(0, 0, 1): 1, (1, 0, 1): 1, (0, 1, 1): 1, (1, 1, 1): 2}
    )
    assert qcartier_index(psi) is None
    assert with_linear_representatives(psi) is None


def test_strictly_upper_convex_subdivision():
    """On the minimal-resolution fan the order-function heights (0, 1, 0) bulge
    upward and are strictly dominated by each cone's representative; the
    downward assignment fails (the ampleness inequality fixes the sign)."""
    f = fan_of([(1, 0), (1, 1)], [(1, 1), (4, 5)])
    up = with_linear_representatives(
        SupportFunction(fan=f, ray_values={(1, 0): 0, (1, 1): 1, (4, 5): 0})
    )
    assert is_strictly_upper_convex(up)
    down = with_linear_representatives(
        SupportFunction(fan=f, ray_values={(1, 0): 0, (1, 1): -1, (4, 5): 0})
    )
    assert not is_strictly_upper_convex(down)


def test_single_cone_fan_trivially_convex():
    f = fan_of([(1, 0), (4, 5)])
    psi = with_linear_representatives(canonical_support(f))
    assert is_strictly_upper_convex(psi)


def test_coplanar_heights_not_strict():
    f = fan_of([(1, 0), (1, 1)], [(1, 1), (4, 5)])
    flat = with_linear_representatives(
        SupportFunction(fan=f, ray_values={(1, 0): 0, (1, 1): 0, (4, 5): 0})
    )
    assert not is_strictly_upper_convex(flat)


def test_strict_convexity_invariant_under_global_linear_shift():
    f = fan_of([(1, 0), (1, 1)], [(1, 1), (4, 5)])
    base = {(1, 0): 0, (1, 1): 1, (4, 5): 0}
    w = Covector((3, -2))
    shifted = {r: v + int(w.pair(V(*r))) for r, v in base.items()}
    a = with_linear_representatives(SupportFunction(fan=f, ray_values=base))
    b = with_linear_representatives(SupportFunction(fan=f, ray_values=shifted))
    assert is_strictly_upper_convex(a) == is_strictly_upper_convex(b) == True


def test_representative_that_does_not_interpolate_is_refused():
    """A hand-built representative off its cone's ray values raises, even
    where it would dominate every other ray (a Fraction entry included)."""
    f = fan_of([(1, 0), (1, 1)], [(1, 1), (4, 5)])
    good = with_linear_representatives(SupportFunction(fan=f, ray_values={(1, 0): 0, (1, 1): 1, (4, 5): 0}))
    for bad in (Covector((0, 2)), Covector((Fraction(1, 2), 1))):
        psi = SupportFunction(fan=f, ray_values=good.ray_values, linear_reps={**good.linear_reps, 0: bad})
        with pytest.raises(DivisorError, match="does not interpolate"):
            is_strictly_upper_convex(psi)


def test_representative_missing_for_one_cone_names_it():
    """A representative map without an entry for some maximal cone is
    refused with a DivisorError naming that cone's index, in rank 3 and
    rank 2."""
    f = fan_of([(1, 0, 1), (0, 1, 1), (0, 0, 1)], [(1, 0, 1), (0, 1, 1), (1, 1, 1)])
    values = {(1, 0, 1): 0, (0, 1, 1): 0, (0, 0, 1): 0, (1, 1, 1): -1}
    psi = with_linear_representatives(SupportFunction(fan=f, ray_values=values))
    assert is_strictly_upper_convex(psi)
    for missing in (0, 1):
        reps = {i: m for i, m in psi.linear_reps.items() if i != missing}
        with pytest.raises(DivisorError, match=f"no linear representative for cone {missing}$"):
            is_strictly_upper_convex(SupportFunction(fan=f, ray_values=psi.ray_values, linear_reps=reps))
    plane = with_linear_representatives(
        SupportFunction(fan=fan_of([(1, 0), (1, 1)], [(1, 1), (4, 5)]), ray_values={(1, 0): 0, (1, 1): 1, (4, 5): 0})
    )
    assert is_strictly_upper_convex(plane)
    with pytest.raises(DivisorError, match="no linear representative for cone 1$"):
        reps = {0: plane.linear_reps[0]}
        is_strictly_upper_convex(SupportFunction(fan=plane.fan, ray_values=plane.ray_values, linear_reps=reps))


def test_missing_representatives_rejected():
    f = fan_of([(1, 0), (0, 1)])
    with pytest.raises(DivisorError, match="representatives"):
        is_strictly_upper_convex(canonical_support(f))


def test_discrepancies_crepant_example():
    base = make_cone([V(0, 1), V(2, 1)])
    ref = star_subdivision(make_fan([base]), V(1, 1))
    rep = discrepancies(base, ref)
    assert rep.m_sigma == Covector((0, 1))
    assert [(v.coords, a) for v, a in rep.entries] == [((1, 1), 0)]
    assert rep.is_crepant


def test_discrepancies_positive_example():
    # index-two base: the added ray carries discrepancy -1/2 (> -1)
    base = make_cone([V(1, 0), V(-1, 4)])
    ref = star_subdivision(make_fan([base]), V(0, 1))
    rep = discrepancies(base, ref)
    assert [(v.coords, a) for v, a in rep.entries] == [((0, 1), Fraction(-1, 2))]
    assert not rep.is_crepant and rep.is_log_terminal_witness


def test_discrepancies_empty_report():
    base = make_cone([V(0, 1), V(2, 1)])
    rep = discrepancies(base, make_fan([base]))
    assert rep.entries == ()


def test_discrepancies_requires_q_gorenstein():
    base = make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1), V(2, 2, -1)])
    with pytest.raises(DivisorError):
        discrepancies(base, make_fan([base]))


def test_discrepancies_support_mismatch():
    base = make_cone([V(1, 0), V(0, 1)])
    other = make_fan([make_cone([V(1, 0), V(1, 1)])])
    with pytest.raises(DivisorError, match="support"):
        discrepancies(base, other)


def test_log_terminal_bound_random(rng):
    checked = 0
    while checked < 15:
        c = random_pointed_cone(rng, 2, coord_bound=5)
        if c is None or not c.is_full_dimensional:
            continue
        from toresolve.classify import gorenstein_data
        from toresolve.hilbert import hilbert_basis

        if gorenstein_data(c) is None:
            continue
        interior = [
            m for m in hilbert_basis(c).members if m not in c.generators
        ]
        fan = make_fan([c])
        for v in interior:
            fan = star_subdivision(fan, v)
        rep = discrepancies(c, fan)
        assert rep.is_log_terminal_witness
        checked += 1


def test_qcartier_index_matches_classifier_index(rng):
    checked = 0
    while checked < 20:
        c = random_pointed_cone(rng, rng.choice([2, 3]), coord_bound=4)
        if c is None or not c.is_full_dimensional:
            continue
        report = classify(c)
        idx = qcartier_index(canonical_support(make_fan([c])))
        if report.q_gorenstein is None:
            assert idx is None
        else:
            assert idx == report.q_gorenstein[1]
        checked += 1


def test_cone_representative_matches_gauss_jordan():
    """On the cones of the simplicial_cone oracle test (same seed), the
    representative equals the rational Gauss-Jordan solution."""
    rng, values_rng = random.Random(20261018), random.Random(5)
    for _ in range(150):
        cone = make_cone(random_independent_generators(rng, rng.choice((2, 3, 3))))
        values = [values_rng.randint(-6, 6) for _ in cone.generators]
        psi = SupportFunction(
            fan=make_fan([cone]), ray_values={g.coords: v for g, v in zip(cone.generators, values)}
        )
        assert _cone_representative(cone, psi) == gauss_jordan_solve(list(cone.generators), values)
