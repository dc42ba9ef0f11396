import itertools
import math
import operator
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from toresolve import hilbert, lattice
from toresolve.classify import classify, convex_hull_2d
from toresolve.cli import main
from toresolve.cones import ConeError, dual_cone, make_cone
from toresolve.hilbert import (
    _lower_points,
    _triangulate,
    embedding_dimension,
    floor_facets,
    hilbert_basis,
    hilbert_chain,
    toric_relations,
)
from toresolve.lattice import IntMatrix, LatticeVector, adjugate, smith_normal_form
from toresolve.resolve2d import cf_expansion, minimal_resolution

from conftest import (
    box_hilbert_oracle,
    count_calls,
    dd_floor_facets,
    gauss_jordan_solve,
    parallelepiped_hilbert_basis,
    pulling_triangulation,
    random_pointed_cone,
    random_rank3_cones,
    unimodular_2x2,
    unimodular_from_ops,
)
from test_cli import HOSTILE_JOBS, write_job


def V(*coords):
    return LatticeVector(tuple(coords))


def members(c):
    return [m.coords for m in hilbert_basis(c).members]


def test_first_orthant_units():
    for r in (2, 3, 4):
        c = make_cone([V(*(1 if i == j else 0 for j in range(r))) for i in range(r)])
        assert sorted(members(c)) == sorted(
            tuple(1 if i == j else 0 for j in range(r)) for i in range(r)
        )


def test_running_example_basis():
    # expected value frozen from the box-enumeration oracle
    c = make_cone([V(1, 0), V(4, 5)])
    assert box_hilbert_oracle(c) == [V(1, 0), V(1, 1), V(4, 5)]
    assert members(c) == [(1, 0), (1, 1), (4, 5)]


def test_span_lattice_basis_is_the_lifted_planar_basis():
    # the running example in the plane z = 0 of rank 3, and moved off it by
    # a GL(3,Z) map; both reach hilbert_basis's span-lattice branch
    u = IntMatrix(((2, 1, 0), (1, 1, 0), (3, -2, 1)))
    assert abs(u.det()) == 1
    for a in (IntMatrix.identity(3), u):
        c = make_cone([a.apply(V(1, 0, 0)), a.apply(V(4, 5, 0))])
        assert c.dim == 2 < c.lattice_rank
        expected = sorted(a.apply(V(x, y, 0)) for x, y in [(1, 0), (1, 1), (4, 5)])
        assert list(hilbert_basis(c).members) == expected


def test_dual_cone_basis_tridiagonal_family():
    # k_0=(0,1), k_5=(5,-4) with interior members k_i=(i,1-i) solving the
    # tridiagonal system whose diagonal is the continued fraction of 5/4
    c = make_cone([V(0, 1), V(5, -4)])
    expected = sorted([(0, 1), (1, 0), (2, -1), (3, -2), (4, -3), (5, -4)])
    assert members(c) == expected
    # the three-term relations k_{i-1} + k_{i+1} = 2 k_i hold
    chain = [(0, 1), (1, 0), (2, -1), (3, -2), (4, -3), (5, -4)]
    for i in range(1, 5):
        assert tuple(
            a + b for a, b in zip(chain[i - 1], chain[i + 1])
        ) == tuple(2 * x for x in chain[i])


def test_rank4_cube_cones_match_box_oracle():
    """The pulling triangulation in rank 4, where facets need not be
    simplices: the cones over the cube [-1, 1]^3 at height h, the corner
    (1, 1, 1) raised to h * corner or not, have 8 rays and square facets,
    their duals 6 or 9 rays.  Both Hilbert bases are the box oracle's, and
    classify reports the flags the grading gives."""
    flags = {}
    for h, corner in itertools.product((1, 2), repeat=2):
        c = make_cone([V(*p, h * corner if p == (1, 1, 1) else h) for p in itertools.product((-1, 1), repeat=3)])
        d = dual_cone(c)
        assert (len(c.generators), len(d.generators)) == (8, 6 if corner == 1 else 9)
        assert list(hilbert_basis(c).members) == box_hilbert_oracle(c)
        assert list(hilbert_basis(d).members) == box_hilbert_oracle(d)
        r = classify(c)
        assert not (r.smooth or r.q_factorial) and r.embedding_dim == len(box_hilbert_oracle(d))
        flags[h, corner] = (r.q_gorenstein and r.q_gorenstein[1], r.gorenstein, r.canonical, r.terminal)
    # at height 1 the interior point (0, 0, 0, 1) makes the cone canonical but
    # not terminal; at height 2 that point has grading 1/2; with a raised
    # corner the generators lie on no common hyperplane, so there is no grading
    assert flags == {
        (1, 1): (1, True, True, False),
        (2, 1): (2, False, False, False),
        (1, 2): (None, False, False, False),
        (2, 2): (None, False, False, False),
    }


def test_non_pointed_rejected():
    halfplane = dual_cone(make_cone([V(1, 0, 0)]))
    with pytest.raises(ConeError):
        hilbert_basis(halfplane)


def test_embedding_dimension_examples():
    assert embedding_dimension(make_cone([V(1, 0), V(4, 5)])) == 6
    fig = make_cone([V(-3, 3, 1), V(3, 1, 1), V(0, -3, 1)])
    assert embedding_dimension(fig) == 14
    for r in (2, 3):
        basic = make_cone([V(*(1 if i == j else 0 for j in range(r))) for i in range(r)])
        assert embedding_dimension(basic) == r


def test_embedding_dimension_requires_full_dimension():
    ray = make_cone([V(1, 0, 0)])
    with pytest.raises(ConeError):
        embedding_dimension(ray)


def test_toric_relations_smooth_empty():
    c = make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)])
    assert toric_relations(c, 3) == []


def test_toric_relations_running_example_count():
    # the rank-one condition on the 2x5 matrix yields C(5,2) = 10 binomials
    c = make_cone([V(1, 0), V(4, 5)])
    rels = toric_relations(c, 2)
    assert len(rels) == 10
    basis = hilbert_basis(dual_cone(c)).members
    for r in rels:
        left = [0] * len(basis[0].coords)
        right = list(left)
        for e, b in zip(r.left, basis):
            left = [x + e * y for x, y in zip(left, b.coords)]
        for e, b in zip(r.right, basis):
            right = [x + e * y for x, y in zip(right, b.coords)]
        assert tuple(left) == tuple(right) == r.image


def test_toric_relations_cone_over_square():
    c = make_cone([V(0, 0, 1), V(1, 0, 1), V(0, 1, 1), V(1, 1, 1)])
    rels = toric_relations(c, 2)
    assert len(rels) == 1
    assert sum(rels[0].left) == sum(rels[0].right) == 2


def test_hilbert_oracle_equivalence(rng):
    checked = 0
    while checked < 40:
        c = random_pointed_cone(rng, rng.choice([2, 3]), max_gens=6)
        if c is None or not c.is_full_dimensional:
            continue
        assert list(hilbert_basis(c).members) == box_hilbert_oracle(c)
        checked += 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    gens=st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 2)), min_size=4, max_size=8, unique=True
    ),
    ops=st.lists(st.tuples(st.permutations(range(3)), st.integers(-2, 2)), min_size=1, max_size=4),
    flip=st.booleans(),
)
def test_hilbert_basis_invariant_under_unimodular_change_of_basis(gens, ops, flip):
    """A GL(3,Z) change of basis reorders the rays, so another ray is pulled;
    the basis must still be the image of the original one, and both agree
    with the box oracle on triangulations of 2 to 4 simplices."""
    c = make_cone([V(*g) for g in gens])
    assume(4 <= len(c.generators) <= 6 and c.is_full_dimensional)
    u = unimodular_from_ops(ops, flip)
    moved = make_cone([u.apply(g) for g in c.generators])
    basis = list(hilbert_basis(c).members)
    assert basis == box_hilbert_oracle(c)
    assert list(hilbert_basis(moved).members) == sorted(u.apply(h) for h in basis)


def test_minimality_of_basis(rng):
    checked = 0
    while checked < 10:
        c = random_pointed_cone(rng, rng.choice([2, 3]), coord_bound=4)
        if c is None or not c.is_full_dimensional:
            continue
        basis = list(hilbert_basis(c).members)
        for leave_out in basis:
            others = [b for b in basis if b != leave_out]
            assert not _generated_by(c, leave_out, others), (
                [g.coords for g in c.generators],
                leave_out,
            )
        checked += 1


def _generated_by(cone, target, generators):
    """Bounded search for a nonnegative integer combination reaching target."""
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


def test_generators_are_members_and_ray_members_are_primitive(rng):
    from toresolve.lattice import primitive

    checked = 0
    while checked < 20:
        c = random_pointed_cone(rng, rng.choice([2, 3]))
        if c is None or not c.is_full_dimensional:
            continue
        checked += 1
        hb = hilbert_basis(c)
        gen_set = {g.coords for g in c.generators}
        assert gen_set <= {m.coords for m in hb.members}
        for m in hb.members:
            # a member on an extreme ray is the primitive generator itself
            if primitive(m).coords in gen_set:
                assert m.coords in gen_set


def test_edim_at_least_rank_with_equality_iff_basic(rng):
    from toresolve.cones import is_basic

    checked = 0
    while checked < 25:
        c = random_pointed_cone(rng, rng.choice([2, 3]), coord_bound=3)
        if c is None or not c.is_full_dimensional:
            continue
        checked += 1
        e = embedding_dimension(c)
        assert e >= c.lattice_rank
        assert (e == c.lattice_rank) == is_basic(c)


def normal_form_cones(seed: int) -> list:
    """The cones (0, 1), (n, -q) for every coprime 0 <= q < n <= 60 and for
    20 seeded n <= 2,000, each followed by its image under a random GL(2, Z)
    map with entries in [-5, 5]."""
    rng = random.Random(seed)
    pairs = [(n, q) for n in range(1, 61) for q in range(n) if math.gcd(n, q) == 1]
    drawn = []
    while len(drawn) < 20:
        n = rng.randint(61, 2000)
        q = rng.randrange(n)
        if math.gcd(n, q) == 1:
            drawn.append((n, q))
    maps = unimodular_2x2()
    cones = []
    for n, q in pairs + drawn:
        (a, b), (c, d) = rng.choice(maps)
        gens = [(0, 1), (n, -q)]
        cones.append(make_cone([V(*g) for g in gens]))
        cones.append(make_cone([V(a * x + b * y, c * x + d * y) for x, y in gens]))
    return cones


def test_rank2_hilbert_basis_matches_parallelepiped_oracle():
    """The continued-fraction chain, sorted, is the Hilbert basis found by
    the parallelepiped walk and its domination filter, on every coprime
    n/q with n <= 60, on seeded n <= 2,000 and on GL(2, Z) images of both."""
    cones = normal_form_cones(20261021)
    assert len(cones) > 2_000
    for c in cones:
        assert list(hilbert_basis(c).members) == parallelepiped_hilbert_basis(c), c


def test_hilbert_chain_runs_from_generator_to_generator_in_basic_steps():
    """The chain starts at one generator and ends at the far one,
    counterclockwise; consecutive members have det 1, and its terms are the
    continued fraction of n/q and satisfy u_{i-1} + u_{i+1} = b_i u_i."""
    det = lambda u, v: u.coords[0] * v.coords[1] - u.coords[1] * v.coords[0]
    for c in normal_form_cones(7):
        chain, terms = hilbert_chain(c)
        assert {chain[0], chain[-1]} == set(c.generators), c
        n = det(chain[0], chain[-1])
        assert n > 0, c
        assert all(det(u, v) == 1 for u, v in zip(chain, chain[1:])), c
        assert len(terms) == len(chain) - 2
        for u_prev, u, u_next, b in zip(chain, chain[1:], chain[2:], terms):
            assert u_prev + u_next == b * u and b >= 2, c
        if n > 1:
            # the far generator is n u_1 - q u_0
            q = det(chain[1], chain[-1])
            assert terms == cf_expansion(n, q).terms, c


def test_rank2_routes_walk_no_cosets(monkeypatch):
    """In rank 2 the Hilbert basis, the embedding dimension, the hull floor
    and the minimal resolution come from the chain alone: no parallelepiped
    or lower-point walk, no Smith form and no planar hull runs, on the
    12-term cone and a seeded draw."""
    rng = random.Random(29)
    cones = [make_cone([V(0, 1), V(121393, -46368)]), make_cone([V(1, 0), V(1, 10007)])]
    while len(cones) < 60:
        c = random_pointed_cone(rng, 2, coord_bound=30)
        if c is not None and c.is_full_dimensional:
            cones.append(c)
    calls = [
        count_calls(monkeypatch, fn)
        for fn in (
            hilbert._parallelepiped_points,
            hilbert._lower_points,
            lattice.smith_normal_form,
            lattice.convex_hull_2d,
        )
    ]
    for c in cones:
        hilbert_basis(c)
        embedding_dimension(c)
        floor_facets(c)
        minimal_resolution(c)
    assert calls == [[], [], [], []]


def test_rank2_coset_budget_is_read_off_the_determinant(monkeypatch):
    """The chain refuses a cone of more than ``MAX_COSETS`` cosets with the
    coset walks' message, on |det(a, b)| alone: no Smith form is taken."""
    smith = count_calls(monkeypatch, lattice.smith_normal_form)
    c = make_cone([V(1, 0), V(1, 10**18 + 3)])
    with pytest.raises(ConeError) as refusal:
        hilbert_basis(c)
    assert str(refusal.value) == (
        "the parallelepiped of the cone on [(1, 0), (1, 1000000000000000003)] has "
        "1000000000000000003 lattice points, more than the 10000000 that can be enumerated"
    )
    # one coset past the budget, with det(a, b) of either sign for the sorted generators
    signs = set()
    for gens in ([V(0, 1), V(-(10**7) - 1, 5)], [V(1, 0), V(3, 10**7 + 1)]):
        (a0, a1), (b0, b1) = (g.coords for g in make_cone(gens).generators)
        assert abs(a0 * b1 - a1 * b0) == 10**7 + 1
        signs.add(a0 * b1 - a1 * b0 > 0)
        with pytest.raises(ConeError, match="has 10000001 lattice points"):
            hilbert_basis(make_cone(gens))
    assert signs == {False, True}
    assert smith == []


def test_floor_facets_running_example():
    c = make_cone([V(1, 0), V(4, 5)])
    fls = floor_facets(c)
    pts = sorted(p.coords for *_, points in fls for p in points)
    assert pts == [(1, 0), (1, 1), (1, 1), (4, 5)]  # two segments sharing (1,1)


def test_floor_facet_of_canonical_cone_is_single():
    fig = make_cone([V(-3, 3, 1), V(3, 1, 1), V(0, -3, 1)])
    fls = floor_facets(fig)
    assert len(fls) == 1
    assert {p.coords for p in fls[0][3]} >= {(-3, 3, 1), (3, 1, 1), (0, -3, 1)}


def box_lower_points(simplex) -> list[tuple[int, ...]]:
    """The primitive points sum t_i g_i with t_i in [0, 1) and 0 < sum t_i <= 1,
    by a scan of the bounding box of conv(0, g_1, g_2, g_3) with each
    point's barycentric coordinates solved by Gauss-Jordan elimination."""
    gens = [g.coords for g in simplex]
    rows = [LatticeVector(tuple(g[k] for g in gens)) for k in range(3)]
    box = [range(min(0, *(g[k] for g in gens)), max(0, *(g[k] for g in gens)) + 1) for k in range(3)]
    out = []
    for p in itertools.product(*box):
        if math.gcd(*p) != 1:
            continue
        t = gauss_jordan_solve(rows, p).coords
        if all(0 <= ti < 1 for ti in t) and 0 < sum(t) <= 1:
            out.append(p)
    return out


def seeded_simplices() -> list[tuple[LatticeVector, ...]]:
    """30 seeded simplices in [-6, 6]^3 with determinants up to 500."""
    rng = random.Random(20261019)
    simplices = []
    while len(simplices) < 30:
        gens = tuple(V(*(rng.randint(-6, 6) for _ in range(3))) for _ in range(3))
        det = IntMatrix(tuple(g.coords for g in gens)).det()
        if 0 < abs(det) <= 500:
            simplices.append(gens)
    assert max(abs(IntMatrix(tuple(g.coords for g in s)).det()) for s in simplices) > 300
    return simplices


def coset_walk_lower_points(simplex) -> list[tuple[int, ...]]:
    """``_lower_points`` by the walk over every coset representative
    x0 = U^-1 a, a in the product of the ranges of the Smith diagonal, each
    through the two products r = (sign(det) adj(G) x0) mod D and, when
    0 < sum r <= D, x = G r / D."""
    g_cols = IntMatrix(tuple(zip(*(g.coords for g in simplex))))
    s, u, _v = smith_normal_form(g_cols)
    u_inv = u.inverse_unimodular().rows
    det, adj_cols = adjugate(g_cols.rows)
    size = abs(det)
    adj_rows = [tuple(x if det > 0 else -x for x in row) for row in zip(*adj_cols)]
    points = []
    for a in itertools.product(*(range(abs(s.rows[i][i])) for i in range(len(simplex)))):
        x0 = [sum(map(operator.mul, row, a)) for row in u_inv]
        r = [sum(map(operator.mul, row, x0)) % size for row in adj_rows]
        if 0 < sum(r) <= size:
            x = tuple(sum(map(operator.mul, row, r)) // size for row in g_cols.rows)
            if math.gcd(*x) == 1:
                points.append(x)
    return points


def test_lower_points_by_stride_match_coset_walk():
    """Stepping r by a fixed increment along the last Smith factor gives the
    coset walk's list, in the same order, on the seeded simplices and on
    every simplex of the pulling triangulations of the conftest cones, which
    include groups with more than one nontrivial factor."""
    simplices = seeded_simplices()
    for c in random_rank3_cones(27182818, 4, 300):
        simplices += _triangulate(c)
    factors = 0
    for simplex in simplices:
        assert _lower_points(simplex) == coset_walk_lower_points(simplex), simplex
        s = smith_normal_form(IntMatrix(tuple(zip(*(g.coords for g in simplex)))))[0]
        factors += sum(s.rows[i][i] > 1 for i in range(3)) > 1
    assert factors >= 5


def test_lower_points_match_box_scan():
    """The integer walk over the Smith-form group gives exactly the primitive
    parallelepiped points on or under the generator plane, each once, on
    seeded simplices with determinants up to 500 and on every simplex of
    the pulling triangulations of the benchmark's random cones."""
    simplices = seeded_simplices()
    for c in random_rank3_cones(27182818, 4, 40):
        simplices += _triangulate(c)
    for simplex in simplices:
        walked = _lower_points(simplex)
        assert len(walked) == len(set(walked)), simplex
        assert sorted(walked) == box_lower_points(simplex), simplex


def _covers(c, simplices) -> bool:
    """Whether rank-3 simplices on generators of c tile it: each is
    full-dimensional, each wall on a facet of c is that facet, once, and each
    wall off the facets is shared by two simplices lying on opposite sides."""
    walls: dict[frozenset, list[int]] = {}
    for simplex in simplices:
        if not set(simplex) <= set(c.generators) or det3(*simplex) == 0:
            return False
        for k in range(3):
            u, v = sorted((simplex[k - 2], simplex[k - 1]))
            walls.setdefault(frozenset((u, v)), []).append(det3(u, v, simplex[k]))
    facets = {frozenset(g for g in c.generators if m.pair(g) == 0) for m in c.inequalities}
    for wall, sides in walls.items():
        if wall in facets:
            if len(sides) != 1:
                return False
        elif len(sides) != 2 or sides[0] * sides[1] >= 0:
            return False
    return facets <= set(walls)


def det3(a, b, c) -> int:
    return IntMatrix((a.coords, b.coords, c.coords)).det()


def test_rank3_apex_has_the_least_determinant_sum(monkeypatch):
    """On the criterion-5 shapes, both conftest corpora and their duals,
    ``_triangulate`` pulls from the first generator with the least sum of
    |det| over the pulling triangulations from each generator: so never more
    than the first-ray oracle's, strictly less on many duals and on some
    primal cones, and the first ray on every tie, which takes in every cone
    on coplanar rays.  The simplices tile the cone.  Wherever they differ
    from the first ray's, ``hilbert_basis``, ``floor_facets`` and
    ``classify`` (with the dual basis its embedding dimension counts) are
    the same on the first-ray route."""
    pts = list(itertools.product(range(4), repeat=2))
    shapes = [comb for n in (3, 4) for comb in itertools.combinations(pts, n) if len(convex_hull_2d(list(comb))) == n]
    cones = [make_cone([V(x, y, 1) for x, y in shape]) for shape in shapes]
    cones += random_rank3_cones(27182818, 4, 300) + random_rank3_cones(20261019, 4, 300)
    lower = {"primal": 0, "dual": 0}
    moved = []
    for c in cones:
        differs = []
        for side, cone in (("primal", c), ("dual", dual_cone(c))):
            sums = [
                sum(abs(det3(*s)) for s in pulling_triangulation(cone, j)) for j in range(len(cone.generators))
            ]
            chosen = _triangulate(cone)
            assert chosen == pulling_triangulation(cone, sums.index(min(sums))), cone
            assert sum(abs(det3(*s)) for s in chosen) == min(sums) <= sums[0], cone
            assert _covers(cone, chosen), cone
            if c.grading is not None and side == "primal":
                assert len(set(sums)) == 1, cone
            lower[side] += min(sums) < sums[0]
            differs.append(chosen != pulling_triangulation(cone))
        if any(differs):
            moved.append((c, *differs))
    assert lower["dual"] >= 400 and lower["primal"] >= 50, lower

    def outputs():
        dual_bases = {}
        real_basis = hilbert.hilbert_basis

        def recorded(cone):
            dual_bases[cone] = real_basis(cone)
            return dual_bases[cone]

        found = []
        with monkeypatch.context() as m:
            m.setattr(hilbert, "hilbert_basis", recorded)
            for c, primal, _dual in moved:
                report = classify(c)
                # classify's embedding dimension is the size of the dual basis it recorded
                found.append((report, dual_bases.pop(dual_cone(c))))
                if primal:
                    found.append((real_basis(c), floor_facets(c)))
        return found

    chosen = outputs()
    monkeypatch.setattr(hilbert, "_triangulate", pulling_triangulation)
    assert outputs() == chosen


def test_floor_facets_on_lower_points_match_oracles(tmp_path, capsys):
    """On the conftest draw, the floor gift-wrapped over the lower points
    equals the 4-D double description of the Hilbert basis, and every tight
    point of every facet is a Hilbert point.  A simplex too large to walk is
    refused at once on the floor path, with a message naming the cone."""
    for c in random_rank3_cones(27182818, 4, 300):
        facets = [points for *_, points in floor_facets(c)]
        assert facets == dd_floor_facets(c), c
        basis = set(hilbert_basis(c).members)
        assert all(p in basis for facet in facets for p in facet), c
    job = HOSTILE_JOBS[0]
    infile = write_job(tmp_path, "huge.json", job)
    start = time.perf_counter()
    assert main(["resolve3d", "--in", infile, "--out", str(tmp_path / "out.json")]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "that can be enumerated" in err
    assert all(str(tuple(g)) in err for g in job["cones"][0]["generators"])
