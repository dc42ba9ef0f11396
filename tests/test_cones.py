import math
import random

import pytest
import sympy

from toresolve import cones
from toresolve.cones import (
    ConeError,
    Fan,
    cone_over_polygon,
    dual_cone,
    extreme_rays,
    faces,
    intersect_cones,
    is_basic,
    is_face_of,
    make_cone,
    make_fan,
    multiplicity,
    simplicial_cone,
    star_subdivision,
)
from toresolve.hilbert import _parallelepiped_points
from toresolve.lattice import IntMatrix, LatticeVector, lattice_determinant, primitive
from toresolve.resolve3d import canonical_modification, completion, resolve_piece

from conftest import (
    brute_force_facets, fraction_rank, gauss_jordan_solve, pulling_triangulation,
    random_independent_generators, random_pointed_cone, random_rank3_cones, reference_extreme_rays,
    reference_make_cone,
)


def V(*coords):
    return LatticeVector(tuple(coords))


def gens(c):
    return [g.coords for g in c.generators]


def test_make_cone_discards_interior_generator():
    c = make_cone([V(1, 0), V(1, 1), V(4, 5)])
    assert gens(c) == [(1, 0), (4, 5)]
    # the dropped point satisfies every inequality strictly
    assert c.contains_in_interior(V(1, 1))


def test_make_cone_first_orthant():
    c = make_cone([V(1, 0), V(0, 1)])
    assert {tuple(m.coords) for m in c.inequalities} == {(1, 0), (0, 1)}


def test_make_cone_rejects_line():
    with pytest.raises(ConeError, match="not pointed"):
        make_cone([V(1, 0), V(-1, 0)])


def test_make_cone_primitivizes():
    c = make_cone([V(2, 0), V(8, 10)])
    assert gens(c) == [(1, 0), (4, 5)]


def test_dual_cone_running_example():
    c = make_cone([V(1, 0), V(4, 5)])
    d = dual_cone(c)
    assert gens(d) == [(0, 1), (5, -4)]
    assert dual_cone(d) == c


def test_dual_cone_self_dual_orthant():
    c = make_cone([V(1, 0), V(0, 1)])
    assert dual_cone(c).generators == c.generators


def test_dual_cone_by_hand():
    c = make_cone([V(0, 1), V(2, 1)])
    assert gens(dual_cone(c)) == sorted([(1, 0), (-1, 2)])


def test_integer_rank_matches_rational_oracles():
    """The tests' rank oracle, Gauss-Jordan over the rationals, agrees with
    sympy on integer matrices with zero rows and dependent rows."""
    rng = random.Random(20011027)
    assert fraction_rank([]) == 0
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 5)
        rows = []
        for _ in range(n_rows):
            kind = rng.random()
            if kind < 0.15:
                row = [0] * n_cols
            elif kind < 0.45 and rows:
                # an integer combination of earlier rows
                row = [0] * n_cols
                for earlier in rows:
                    k = rng.randint(-3, 3)
                    row = [x + k * y for x, y in zip(row, earlier)]
            else:
                row = [rng.randint(-50, 50) for _ in range(n_cols)]
            rows.append(row)
        rng.shuffle(rows)
        rows = [tuple(r) for r in rows]
        assert fraction_rank(rows) == sympy.Matrix(rows).rank(), rows


def test_dual_involution_random(rng):
    for _ in range(40):
        c = random_pointed_cone(rng, rng.choice([2, 3]))
        if c is None:
            continue
        assert dual_cone(dual_cone(c)) == c


def test_dual_of_low_dimensional_cone_has_lineality():
    ray = make_cone([V(1, 2, 0)])
    d = dual_cone(ray)
    assert not d.is_pointed
    assert len(d.lineality) == 2
    # dimension identity dim(sigma ∩ -sigma) + dim(dual) = rank
    assert 0 + d.dim == 3
    assert dual_cone(d) == ray


def test_dimension_identity_random(rng):
    for _ in range(40):
        c = random_pointed_cone(rng, 3)
        if c is None:
            continue
        d = dual_cone(c)
        assert 0 + d.dim == 3  # pointed: lineality of c is zero
        assert len(d.lineality) == 3 - c.dim


def test_faces_counts():
    two_d = make_cone([V(1, 0), V(4, 5)])
    assert len(faces(two_d)) == 4
    square = make_cone([V(0, 0, 1), V(1, 0, 1), V(0, 1, 1), V(1, 1, 1)])
    assert len(faces(square)) == 10
    ray = make_cone([V(3, 6)])
    fs = faces(ray)
    assert len(fs) == 2 and gens(fs[1]) == [(1, 2)]


def test_faces_are_supported():
    c = make_cone([V(0, 0, 1), V(1, 0, 1), V(0, 1, 1), V(1, 1, 1)])
    for f in faces(c):
        assert is_face_of(f, c)


def test_multiplicity_examples():
    assert multiplicity(make_cone([V(1, 0), V(4, 5)])) == 5
    assert multiplicity(make_cone([V(1, 0), V(0, 1)])) == 1
    assert multiplicity(make_cone([V(1, 1, 0), V(1, 0, 1), V(0, 1, 1)])) == 2


def test_multiplicity_non_simplicial_rejected():
    square = make_cone([V(0, 0, 1), V(1, 0, 1), V(0, 1, 1), V(1, 1, 1)])
    assert not square.is_simplicial
    with pytest.raises(ConeError, match="multiplicity undefined"):
        multiplicity(square)


def test_is_basic():
    assert is_basic(make_cone([V(1, 0), V(0, 1)]))
    c = make_cone([V(1, 0), V(4, 5)])
    assert c.is_simplicial and not is_basic(c)


def test_simplicial_cone_matches_make_cone():
    """The adjugate construction gives the whole double-description cone,
    facet inequalities included, and is_basic agrees with the Smith-form
    lattice determinant."""
    rng = random.Random(20261018)
    dets = set()
    for _ in range(150):
        gens = random_independent_generators(rng, rng.choice((2, 3, 3)))
        expected = make_cone(gens)
        got = simplicial_cone(gens)
        assert got == expected, gens
        assert got.inequalities == expected.inequalities and got.equations == ()
        assert is_basic(got) == (lattice_determinant(list(expected.generators)) == 1)
        dets.add(IntMatrix.from_vectors(gens).det())
    assert {1, -1} <= dets
    assert any(d > 1 for d in dets) and any(d < -1 for d in dets)


def _span_rank(c) -> int:
    return fraction_rank([g.coords for g in c.generators] + [l.coords for l in c.lineality])


def _images(cs, b: IntMatrix) -> dict:
    """Each generator's coordinates and its image under b, for ``_mapped_cones``."""
    return {g.coords: b.apply(g) for c in cs for g in c.generators}


def test_constructors_that_know_the_dimension_run_no_rank():
    """Every constructor keeps ``equations`` a basis of the annihilator of
    the span, so ``dim``, the lattice rank less their number, is the
    rational rank of the rays and lineality: for ``make_cone``,
    ``simplicial_cone``, ``cone_over_polygon``, ``_mapped_cones``,
    ``dual_cone``, ``faces`` and every branch of ``intersect_cones``.  Each
    builds on tuples of exact ``int``, which ``_build_cone`` takes unchecked."""
    rng = random.Random(20261020)
    built = [
        simplicial_cone([V(1, 0, 0), V(1, 2, 0), V(0, 1, 3)]),
        cone_over_polygon([(0, 0, 1), (2, 0, 1), (2, 1, 1), (0, 1, 1)]),
        make_cone([V(1, 0, 0), V(0, 1, 0)]),
    ]
    assert [c.dim for c in built] == [3, 3, 2]
    b = IntMatrix(((1, 2, 0), (0, 1, 0), (3, 0, 2)))
    built += cones._mapped_cones(built[:1], b, _images(built[:1], b))
    duals = []
    for rank in (2, 3, 4):
        for _ in range(40):
            c = random_pointed_cone(rng, rank, 3, max_gens=rank + 1)
            if c is not None:
                built += [c] + faces(c)
                duals.append(dual_cone(c))
    meets = [
        intersect_cones(c1, c2)
        for group in (built, duals)
        for c1, c2 in zip(group, group[1:]) if c1.lattice_rank == c2.lattice_rank
    ] + [intersect_cones(d, d) for d in duals]
    every = built + duals + meets
    for c in every:
        assert c.dim == c.lattice_rank - len(c.equations) == _span_rank(c), c
        vectors = (*c.generators, *c.inequalities, *c.equations, *c.lineality)
        assert all(type(v.coords) is tuple and all(type(x) is int for x in v.coords) for v in vectors), c
    assert sum(0 < c.dim < c.lattice_rank for c in every) >= 5
    assert sum(c.dim == 0 for c in every) >= 5
    assert sum(not c.is_pointed for c in duals) >= 5 and sum(not k.is_pointed for k in meets) >= 5


def test_mapped_cones_equal_simplicial_cones_of_the_images():
    """Mapping a simplicial cone by a nonsingular matrix B through one
    adjugate of B gives ``simplicial_cone`` of the mapped generators, also
    where |det B| > 1 leaves generators and normals to be made primitive."""
    rng = random.Random(20261019)
    dets = set()
    for _ in range(200):
        b = IntMatrix.from_vectors(random_independent_generators(rng, 3))
        dets.add(b.det())
        c = simplicial_cone(random_independent_generators(rng, 3))
        assert cones._mapped_cones([c], b, _images([c], b)) == [simplicial_cone([b.apply(g) for g in c.generators])], (c, b)
    assert {1, -1} <= dets and any(d > 1 for d in dets) and any(d < -1 for d in dets)
    c = simplicial_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)])
    assert cones._mapped_cones([c], IntMatrix.identity(3), _images([c], IntMatrix.identity(3)))[0] is c


def test_mapped_cones_on_the_frames_of_index_one_covers():
    """On the real frames B * basis of the covers of the canonical pieces of
    the conftest cones, of indices 2 to 27, mapping the completion-0 cones
    equals ``simplicial_cone`` of their mapped generators."""
    indices = set()
    for c in random_rank3_cones(27182818, 4, 300):
        for piece in canonical_modification(c).maximal_cones:
            if piece.grading[1] == 1:
                continue
            pc, frame, _rounds, cert = resolve_piece(piece)
            assert abs(frame.det()) == cert.index
            local = completion(pc, 0)[0].maximal_cones
            expected = [simplicial_cone([frame.apply(g) for g in k.generators]) for k in local]
            assert cones._mapped_cones(list(local), frame, _images(local, frame)) == expected, piece
            indices.add(cert.index)
    assert set(range(2, 14)) | {15} <= indices


def test_simplicial_cone_rejects_dependent_input():
    for gens in (
        [V(1, 0, 0), V(0, 1, 0), V(1, 1, 0)],
        [V(1, 2, 3), V(2, 4, 6), V(0, 0, 1)],
        [V(1, 0, 0), V(0, 0, 0), V(0, 0, 1)],
        [V(1, 0, 0), V(0, 1, 0)],
        [V(1, 0), V(0, 1, 0)],
        [],
    ):
        with pytest.raises(ConeError):
            simplicial_cone(gens)


def test_make_fan_subdivision_pair():
    f = make_fan([make_cone([V(1, 0), V(1, 1)]), make_cone([V(1, 1), V(4, 5)])])
    assert len(f.maximal_cones) == 2
    assert [r.coords for r in f.rays()] == [(1, 0), (1, 1), (4, 5)]


def test_make_fan_rejects_overlap():
    with pytest.raises(ConeError):
        make_fan([make_cone([V(1, 0), V(0, 1)]), make_cone([V(1, 1), V(1, -1)])])


def test_make_fan_single_cone():
    f = make_fan([make_cone([V(1, 0), V(4, 5)])])
    assert len(f.maximal_cones) == 1


def test_make_fan_drops_face_cones():
    big = make_cone([V(1, 0), V(0, 1)])
    f = make_fan([big, make_cone([V(1, 0)])])
    assert len(f.maximal_cones) == 1


def test_star_subdivision_running_example():
    f = make_fan([make_cone([V(1, 0), V(4, 5)])])
    fs = star_subdivision(f, V(1, 1))
    assert [r.coords for r in fs.rays()] == [(1, 0), (1, 1), (4, 5)]
    assert [multiplicity(c) for c in fs.maximal_cones] == [1, 1]


def test_star_subdivision_existing_ray_is_identity():
    f = make_fan([make_cone([V(1, 0), V(1, 1)]), make_cone([V(1, 1), V(4, 5)])])
    assert star_subdivision(f, V(1, 1)) == f


def test_star_subdivision_orthant():
    f = make_fan([make_cone([V(1, 0), V(0, 1)])])
    fs = star_subdivision(f, V(1, 1))
    assert all(multiplicity(c) == 1 for c in fs.maximal_cones)


def test_star_subdivision_outside_support():
    f = make_fan([make_cone([V(1, 0), V(0, 1)])])
    with pytest.raises(ConeError, match="outside"):
        star_subdivision(f, V(-1, 2))


def test_star_subdivision_preserves_support(rng):
    f = make_fan([make_cone([V(1, 0), V(1, 2)]), make_cone([V(1, 2), V(-1, 3)])])
    fs = star_subdivision(f, V(1, 1))
    assert set(r.coords for r in fs.rays()) == set(r.coords for r in f.rays()) | {(1, 1)}
    for _ in range(200):
        a, b = rng.randint(0, 7), rng.randint(0, 7)
        pts = [
            a * V(1, 0) + b * V(1, 2),
            a * V(1, 2) + b * V(-1, 3),
        ]
        for p in pts:
            if p.is_zero:
                continue
            assert fs.supports(p) == f.supports(p) == True


def _accepted_draws(rng, accept, wanted: int, draws: int) -> list:
    """The first ``wanted`` rank-2 or rank-3 cones of ``random_pointed_cone``
    that ``accept`` passes, from at most ``draws`` draws; fails otherwise,
    naming how many were accepted."""
    cones = []
    for _ in range(draws):
        c = random_pointed_cone(rng, rng.choice([2, 3]))
        if c is not None and accept(c):
            cones.append(c)
            if len(cones) == wanted:
                return cones
    pytest.fail(f"only {len(cones)} of {wanted} cones accepted in {draws} draws")


def test_membership_oracle_consistency(rng):
    """Nonnegative-combination membership agrees with inequality evaluation."""
    cones = _accepted_draws(rng, lambda c: c.is_full_dimensional, 5, 50)
    checked = 0
    for c in cones:
        simplices = pulling_triangulation(c)
        for _ in range(200):
            p = LatticeVector(
                tuple(rng.randint(-8, 8) for _ in range(c.lattice_rank))
            )
            by_ineq = c.contains(p)
            by_comb = any(
                _in_simplex_combination(s, p) for s in simplices
            )
            assert by_ineq == by_comb, (gens(c), p.coords)
            checked += 1
    assert checked == 1000


def _in_simplex_combination(simplex, p):
    sol = gauss_jordan_solve(
        [LatticeVector(tuple(g.coords[i] for g in simplex)) for i in range(p.rank)],
        list(p.coords),
    )
    return sol is not None and all(x >= 0 for x in sol.coords)


def test_subdividing_point_reduces_multiplicity(rng):
    """Every singular simplicial cone has an interior-ish lattice point whose
    star subdivision strictly lowers the maximal multiplicity."""
    singular = lambda c: c.is_full_dimensional and c.is_simplicial and not is_basic(c)
    for c in _accepted_draws(rng, singular, 15, 200):
        candidates = [
            LatticeVector(p)
            for p in _parallelepiped_points(tuple(c.generators))
            if any(x != 0 for x in p)
        ]
        assert candidates, gens(c)
        best = None
        for v in candidates:
            from toresolve.lattice import primitive

            vp = primitive(v)
            fan = star_subdivision(make_fan([c]), vp)
            worst = max(
                multiplicity(mc) if mc.is_simplicial else 10 ** 9
                for mc in fan.maximal_cones
            )
            if best is None or worst < best:
                best = worst
        assert best is not None and best < multiplicity(c), gens(c)


def _generator_draw(rng: random.Random, rank: int) -> list[LatticeVector]:
    """Generators of every shape ``make_cone`` meets: plain draws, ones
    spanning a lower-dimensional cone, ones containing a line, and ones with
    repeated, scaled, interior or zero generators."""
    vs = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(1, rank + 3))]
    shape = rng.randrange(5)
    if shape == 1:
        basis = vs[: rng.randint(1, rank - 1)]
        vs = [[sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(rank)] for _ in range(len(vs) + 1)]
    elif shape == 2:
        vs.append([-x for x in vs[0]])
    elif shape == 3:
        vs += [vs[0], [2 * x for x in vs[-1]], [x + y for x, y in zip(vs[0], vs[-1])]]
    elif shape == 4:
        vs.insert(rng.randrange(len(vs) + 1), [0] * rank)
    return [LatticeVector(tuple(v)) for v in vs]


def test_double_description_matches_reference_oracles():
    """``extreme_rays`` on incidence bitmasks and ``make_cone``'s facet-set
    extremality agree with the frozenset double description and the rank
    test: the same rays, lineality and order, the same cone fields and
    dimension, the same error messages, and the same intersections."""
    rng = random.Random(20261019)
    shapes = {"lower-dimensional": 0, "not pointed": 0, "redundant": 0, "with a zero vector": 0}
    for rank in (2, 3, 4, 5):
        built = []
        for _ in range(150):
            vs = _generator_draw(rng, rank)
            raw = [v.coords for v in vs]
            assert extreme_rays(raw, rank) == reference_extreme_rays(raw, rank)
            try:
                expected = reference_make_cone(vs)
            except ConeError as e:
                with pytest.raises(ConeError) as got:
                    make_cone(vs)
                assert str(got.value) == str(e)
                shapes["not pointed"] += "not pointed" in str(e)
                continue
            c = make_cone(vs)
            assert (c, c.dim) == expected
            shapes["lower-dimensional"] += c.dim < rank
            shapes["redundant"] += len(c.generators) < len({primitive(v) for v in vs if not v.is_zero})
            shapes["with a zero vector"] += any(v.is_zero for v in vs)
            built.append(c)
        for c1, c2 in zip(built, built[1:]):
            constraints = [m.coords for m in c1.inequalities + c2.inequalities]
            for m in c1.equations + c2.equations:
                constraints += [m.coords, tuple(-x for x in m.coords)]
            rays, lin = reference_extreme_rays(constraints, rank)
            assert extreme_rays(constraints, rank) == (rays, lin)
            if rays and not lin:
                k = intersect_cones(c1, c2)
                assert (k, k.dim) == reference_make_cone([LatticeVector(r) for r in rays])
    assert min(shapes.values()) >= 10, shapes
    for vs, message in (
        ([], "empty generator list"),
        ([V(1, 0), V(1, 0, 0)], "mixed ambient ranks in generator list"),
        ([V(0, 0, 0), V(0, 0, 0)], "cone generated by zero vectors only"),
    ):
        with pytest.raises(ConeError, match=message):
            make_cone(vs)


def _dot(a, x) -> int:
    return sum(p * q for p, q in zip(a, x))


def test_double_description_invariant_on_degenerate_constraints():
    """On constraint systems with duplicated, scaled, zero and redundant rows
    and the +-pairs that ``intersect_cones`` writes for equations, in
    shuffled orders and ranks 2 to 6, ``extreme_rays`` returns the reference
    rays and lineality, and every ray spans a minimal face modulo the
    lineality: its tight constraints have rank dim - dim L - 1."""
    rng = random.Random(19961018)
    kinds = [0] * 5
    for rank in range(2, 7):
        for _ in range(50):
            base = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(1, rank + 2))]
            constraints = list(base)
            for a in base:
                kind = rng.randrange(5)
                kinds[kind] += 1
                if kind == 0:
                    constraints.append(a)
                elif kind == 1:
                    constraints.append(tuple(rng.randint(2, 3) * x for x in a))
                elif kind == 2:
                    constraints.append((0,) * rank)
                elif kind == 3:
                    constraints.append(tuple(-x for x in a))
                else:
                    b = rng.choice(base)
                    constraints.append(tuple(x + y for x, y in zip(a, b)))
            rng.shuffle(constraints)
            rays, lin = extreme_rays(constraints, rank)
            assert (rays, lin) == reference_extreme_rays(constraints, rank), constraints
            assert fraction_rank(constraints) == rank - len(lin)
            assert all(_dot(a, l) == 0 for a in constraints for l in lin)
            for r in rays:
                assert all(_dot(a, r) >= 0 for a in constraints)
                tight = [a for a in constraints if _dot(a, r) == 0]
                assert fraction_rank(tight) == rank - len(lin) - 1, (constraints, r)
    assert min(kinds) >= 50, kinds


def _intersection_draw(rng: random.Random, rank: int):
    """A pointed cone on 1 to rank + 1 generators or, three times as often,
    a cone with lineality: the dual of one on 1 to rank - 1 generators; None
    when the draw contains a line."""
    dual = rng.random() < 0.75
    n = rng.randint(1, rank - 1 if dual else rank + 1)
    try:
        c = make_cone([V(*(rng.randint(-3, 3) for _ in range(rank))) for _ in range(n)])
    except ConeError:
        return None
    return dual_cone(c) if dual else c


def test_intersect_cones_with_lineality_keeps_both_descriptions():
    """An intersection that contains a line keeps its inequalities and
    equations: membership agrees with both inputs, the dimension is the rank
    of its rays and lineality, and dualizing twice gives it back."""
    half_plane = dual_cone(make_cone([V(1, 0)]))
    k = intersect_cones(half_plane, half_plane)
    assert k == half_plane and not k.contains(V(-1, 0))
    rng = random.Random(20261020)
    not_pointed = 0
    for _ in range(400):
        rank = rng.choice((2, 3, 4))
        c1, c2 = _intersection_draw(rng, rank), _intersection_draw(rng, rank)
        if c1 is None or c2 is None:
            continue
        k = intersect_cones(c1, c2)
        not_pointed += not k.is_pointed
        assert k.dim == _span_rank(k) and dual_cone(dual_cone(k)) == k, (c1, c2)
        probes = [g for c in (c1, c2, k) for g in c.generators + c.lineality]
        probes += [-v for v in probes] + [V(*(rng.randint(-3, 3) for _ in range(rank))) for _ in range(20)]
        for v in probes:
            assert k.contains(v) == (c1.contains(v) and c2.contains(v)), (c1, c2, v)
    assert not_pointed >= 30, not_pointed


def test_facets_match_brute_force_hyperplanes():
    """Facets of full-dimensional rank-3 and rank-4 cones are the hyperplanes
    through rank - 1 generators with every generator on one side, and the
    generators kept are those on facets of rank one less than the lattice's."""
    rng = random.Random(1996)
    for rank in (3, 4):
        checked = 0
        while checked < 120:
            vs = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(rank, rank + 4))]
            try:
                c = make_cone([LatticeVector(v) for v in vs])
            except ConeError:
                continue
            if not c.is_full_dimensional:
                continue
            prim = list({tuple(x // math.gcd(*v) for x in v) for v in vs if any(v)})
            normals = brute_force_facets(prim)
            assert [m.coords for m in c.inequalities] == normals
            assert [g.coords for g in c.generators] == sorted(
                g for g in prim
                if fraction_rank([n for n in normals if sum(a * b for a, b in zip(n, g)) == 0]) == rank - 1
            )
            checked += 1


def test_fan_rays_are_kept():
    f = make_fan([make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]), make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, -1)])])
    assert f.rays() is f.rays()
    assert [r.coords for r in f.rays()] == [(0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_fan_equality_ignores_the_order_of_maximal_cones():
    a, b = make_cone([V(1, 0), V(1, 1)]), make_cone([V(1, 1), V(0, 1)])
    assert Fan(2, (a, b)) == Fan(2, (b, a)) == make_fan([b, a])
    assert hash(Fan(2, (a, b))) == hash(Fan(2, (b, a)))
    assert Fan(2, (a, b)) != Fan(2, (a,)) and Fan(2, (a, b)) != Fan(3, (a, b))
