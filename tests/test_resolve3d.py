import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from toresolve import cones, hilbert, resolve3d
from toresolve.classify import LatticePolytope, gorenstein_data, index_one_cover
from toresolve.cones import (
    Fan, dual_cone, intersect_cones, is_basic, make_cone, make_fan, simplicial_cone, star_subdivision
)
from toresolve.divisors import (
    DivisorError, SupportFunction, discrepancies, is_strictly_upper_convex, with_linear_representatives
)
from toresolve.hilbert import floor_facets
from toresolve.lattice import Covector, IntMatrix, LatticeVector, adjugate, primitive
from toresolve.resolve3d import (
    PolygonComplex,
    Resolve3dError,
    _basic_triangle_cone,
    _completion_for_bits,
    _envelope_subdivision,
    _fourier_motzkin,
    _wall_terms,
    blowup_curve_phase,
    blowup_fixed_point,
    canonical_modification,
    completion,
    completions,
    crepant_fixed_point_phase,
    polygon_form,
    resolve,
    resolve_piece,
)

import conftest
from conftest import (
    _affine_value,
    _order_function_subdivision,
    angular_chain_floor,
    box_interior_points,
    box_lattice_points,
    box_slab_points,
    c3_hulls,
    count_calls,
    dd_envelope_subdivision,
    dd_floor_facets,
    floor_polygon,
    fraction_composite_heights,
    fraction_fourier_motzkin,
    fraction_rank,
    gorenstein_cone_over,
    membership_first_convexity,
    random_independent_generators,
    random_pointed_cone,
    random_polygon,
    random_rank3_cones,
    rebuilt_final_fan,
    scanned_facts,
    sequential_fixed_point_phase,
    set_census,
    shifted_composite_heights,
    three_pass_certificate,
    unimodular_2x2,
    unimodular_from_ops,
)


def V(*coords):
    return LatticeVector(tuple(coords))


FIG_TRIANGLE = LatticePolytope.from_points([(-3, 3), (3, 1), (0, -3)])
FIG_CONE = [V(-3, 3, 1), V(3, 1, 1), V(0, -3, 1)]


# --------------------------------------------------------------------- canonical


def test_canonical_modification_of_canonical_cone_is_identity():
    c = make_cone(FIG_CONE)
    fan = canonical_modification(c)
    assert len(fan.maximal_cones) == 1 and fan.maximal_cones[0] == c


def test_canonical_modification_rank2_example():
    # for this cone the hull boundary subdivision is the minimal resolution
    c = make_cone([V(1, 0), V(4, 5)])
    fan = canonical_modification(c)
    assert [r.coords for r in fan.rays()] == [(1, 0), (1, 1), (4, 5)]
    from toresolve.resolve2d import minimal_resolution

    assert fan == minimal_resolution(c)[0]


def test_canonical_modification_rank3_noncanonical():
    # the 1/5(1,1,1) quotient cone: (1,0,0) sits at grading 3/5, not canonical
    # (the spec's pos{(1,0,0),(0,1,0),(1,1,5)} is already canonical: it is the
    # 1/5(1,1,4) quotient, whose grading slab below level one is empty)
    c = make_cone([V(5, -1, -1), V(0, 1, 0), V(0, 0, 1)])
    from toresolve.classify import classify

    assert not classify(c).canonical
    fan = canonical_modification(c)
    assert len(fan.maximal_cones) > 1
    assert any(r.coords == (1, 0, 0) for r in fan.rays())
    for piece in fan.maximal_cones:
        gd = gorenstein_data(piece)
        assert gd is not None
        m = gd[0]
        # canonical criterion: no nonzero lattice point strictly below level one
        below = [v for v in box_slab_points(piece) if m.pair(v) < 1]
        assert below == []


def test_gorenstein_shortcut_matches_floor_facets(rng):
    """On index-one cones the short-cut {c} equals the hull-floor fan of the
    double-description oracle."""
    inputs = [make_cone([V(p[0], p[1], 1) for p in hull]) for hull in c3_hulls(20)]
    while len(inputs) < 35:
        c = random_pointed_cone(rng, 3, coord_bound=4, max_gens=5)
        if c is not None and c.is_full_dimensional and (gorenstein_data(c) or (0, 0))[1] == 1:
            inputs.append(c)
    inputs += [make_cone([V(1, 0), V(1, 3)]), make_cone([V(1, 0), V(-1, 2)])]
    for c in inputs:
        assert gorenstein_data(c)[1] == 1
        assert canonical_modification(c) == make_fan([make_cone(f) for f in dd_floor_facets(c)]), c


@functools.lru_cache(maxsize=None)
def floor_corpus() -> tuple:
    """300 seeded pointed cones in [-4,4]^3 that are not Gorenstein of index
    one, so that their canonical modification needs the floor, and 40
    seeded pointed rank-2 cones in [-6,6]^2."""
    rng = random.Random(20261018)
    rank3, rank2 = [], []
    while len(rank3) < 300:
        c = random_pointed_cone(rng, 3, coord_bound=4, max_gens=6)
        if c is not None and c.is_full_dimensional and (gorenstein_data(c) or (0, 0))[1] != 1:
            rank3.append(c)
    while len(rank2) < 40:
        c = random_pointed_cone(rng, 2, coord_bound=6)
        if c is not None and c.is_full_dimensional:
            rank2.append(c)
    return tuple(rank3), tuple(rank2)


def test_floor_facets_match_double_description_oracle(monkeypatch):
    """The floor found over the lower points, or over the continued-fraction
    chain in rank 2, equals the 4-D double description of the
    parallelepiped Hilbert basis, list order included, and in rank 2 the
    angular chain of that basis; each facet's normal, level and vertices are those
    re-derived from its points alone; no Hilbert basis is computed; and the
    fan built from the floor equals the validated fan of the oracle's
    pieces.  The draw holds cones of index > 1, cones that are not
    Q-Gorenstein and cones that are not simplicial."""
    rank3, rank2 = floor_corpus()
    kinds = {"index > 1": 0, "not Q-Gorenstein": 0, "not simplicial": 0, "several pieces": 0}
    calls = count_calls(monkeypatch, hilbert.hilbert_basis)
    floors = [floor_facets(c) for c in rank3 + rank2]
    assert calls == []
    monkeypatch.undo()
    for c, facets in zip(rank3 + rank2, floors):
        expected = dd_floor_facets(c)
        if c.lattice_rank == 2:
            assert angular_chain_floor(c) == expected, c
        assert [points for *_, points in facets] == expected, c
        assert [(n, k, verts) for n, k, verts, points in facets] == [floor_polygon(f) for f in expected], c
        fan = canonical_modification(c)
        assert fan == make_fan([make_cone(f) for f in expected]), c
        if c.lattice_rank == 3:
            gd = gorenstein_data(c)
            kinds["index > 1"] += gd is not None
            kinds["not Q-Gorenstein"] += gd is None
            kinds["not simplicial"] += not c.is_simplicial
            kinds["several pieces"] += len(fan.maximal_cones) > 1
    assert min(kinds.values()) >= 50, kinds


def test_piece_gradings_come_from_floor_normals():
    """The grading (n / k, k) of each floor facet's normal, kept on its
    piece, is the grading solved afresh; every index-one cover keeps the
    grading pulled back along its sublattice basis; and each resolved
    piece's parallelograms are those of a fresh scan of its cell tags."""
    rank3, rank2 = floor_corpus()
    covers = 0
    for c in rank3 + rank2:
        pieces = canonical_modification(c).maximal_cones
        assert all("grading" in vars(piece) for piece in pieces), c
        assert [piece.grading for piece in pieces] == [cones._solve_grading(piece) for piece in pieces], c
        if c.lattice_rank == 2:
            continue
        for piece in pieces:
            m, index = piece.grading
            if index > 1:
                cover, cert = index_one_cover(piece)
                pulled = Covector(tuple(m.pair(LatticeVector(col)) for col in cert.sublattice_basis.transpose().rows))
                assert vars(cover)["grading"] == (pulled, 1), piece
                covers += 1
            pc = resolve3d.resolve_piece(piece)[0]
            scanned = []
            for cell in pc.cells:
                tag = cell.tag
                assert tag == LatticePolytope(cell.vertices).tag == scanned_facts(cell.vertices)[3], cell
                if not tag["basic"]:
                    assert tag["unit_parallelogram"], cell
                    scanned.append(cell)
            assert pc.parallelograms == tuple(scanned), piece
    assert covers >= 50


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    gens=st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3)), min_size=3, max_size=6, unique=True
    ),
    ops=st.lists(st.tuples(st.permutations(range(3)), st.integers(-2, 2)), min_size=1, max_size=4),
    flip=st.booleans(),
)
def test_canonical_modification_invariant_under_unimodular_change_of_basis(gens, ops, flip):
    """The gift wrap starts on the first wall of the cone at its least
    generator, which a GL(3,Z) change of basis moves; the fan must move
    with the cone."""
    c = make_cone([V(*g) for g in gens])
    assume(c.is_full_dimensional)
    u = unimodular_from_ops(ops, flip)
    moved = canonical_modification(make_cone([u.apply(g) for g in c.generators]))
    image = [make_cone([u.apply(g) for g in piece.generators]) for piece in canonical_modification(c).maximal_cones]
    key = lambda cone: tuple(g.coords for g in cone.generators)
    assert moved == Fan(lattice_rank=3, maximal_cones=tuple(sorted(image, key=key)))


def test_canonical_modification_runs_no_double_description(monkeypatch):
    """On the benchmark's random resolve-small cones the canonical step
    builds its pieces without double description, make_cone or any
    pairwise intersection."""
    inputs = random_rank3_cones(27182818, 4, 40)
    counted = [
        count_calls(monkeypatch, fn)
        for fn in (cones.extreme_rays, cones.intersect_cones, cones.make_cone, cones.make_fan)
    ]
    fans = [canonical_modification(c) for c in inputs]
    assert counted == [[], [], [], []]
    assert sum(len(f.maximal_cones) > 1 for f in fans) >= 10
    make_cone(FIG_CONE)
    assert len(counted[0]) == 1  # the wrappers are live


# --------------------------------------------------------------------- polygon form


def test_polygon_form_fig_cone_identity():
    p, basis = polygon_form(make_cone(FIG_CONE))
    assert p == FIG_TRIANGLE
    assert basis == IntMatrix.identity(3)


def test_polygon_form_rotated_grading():
    # grading functional (1,0,0): generators at first coordinate one
    c = make_cone([V(1, 0, 0), V(1, 1, 0), V(1, 0, 1), V(1, 1, 1)])
    p, basis = polygon_form(c)
    assert len(p.vertices) == 4 and p.area2() == 2
    inv = basis.inverse_unimodular()
    for g in c.generators:
        assert inv.apply(g).coords[2] == 1


def test_polygon_form_basic_cone():
    p, _ = polygon_form(make_cone([V(0, 0, 1), V(1, 0, 1), V(0, 1, 1)]))
    assert p.area2() == 1


def test_polygon_form_requires_gorenstein():
    with pytest.raises(Resolve3dError):
        polygon_form(make_cone([V(1, 0, 0), V(0, 1, 0), V(1, 1, 5)]))


# --------------------------------------------------------------------- fixed points


def test_first_blowup_central_pentagon():
    pc = PolygonComplex.initial(FIG_TRIANGLE)
    pc1 = blowup_fixed_point(pc, 0)
    pentagon = LatticePolytope.from_points([(-2, 2), (-1, 2), (2, 1), (2, 0), (0, -2)])
    assert pentagon in pc1.cells
    # subdivision is a tiling of the triangle
    assert sum(c.area2() for c in pc1.cells) == FIG_TRIANGLE.area2()


def test_blowup_single_interior_point_star():
    q = LatticePolytope.from_points([(0, 0), (3, 0), (0, 3)])
    pc = PolygonComplex.initial(q)
    pc1 = blowup_fixed_point(pc, 0)
    # the central cell degenerates to the unique interior point (1, 1)
    assert all((1, 1) in c.vertices for c in pc1.cells)
    assert len(pc1.cells) == 3
    assert sum(c.area2() for c in pc1.cells) == q.area2()


def test_blowup_rejects_cdv_cell():
    q = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2)])
    pc = PolygonComplex.initial(q)
    with pytest.raises(Resolve3dError, match="cDV"):
        blowup_fixed_point(pc, 0)


def test_blowup_fixed_point_refuses_cell_index_out_of_range():
    """A cell index outside range(len(pc.cells)), -1 included, is refused
    with its index named; a valid one blows up that cell and keeps the
    others."""
    square = LatticePolytope.from_points([(0, 0), (4, 0), (4, 4), (0, 4)])
    halves = [LatticePolytope.from_points(t) for t in ([(0, 0), (4, 0), (4, 4)], [(0, 0), (4, 4), (0, 4)])]
    pc = PolygonComplex(square, tuple(sorted(halves, key=lambda c: c.vertices)))
    for index in (-1, len(pc.cells)):
        with pytest.raises(Resolve3dError, match=f"cell index {index} is out of range"):
            blowup_fixed_point(pc, index)
    last = pc.cells[-1]
    pc1 = blowup_fixed_point(pc, len(pc.cells) - 1)
    assert any(c is pc.cells[0] for c in pc1.cells) and last not in pc1.cells
    assert pc1.lifted == (tuple(sorted(last.interior_points())),)
    assert sum(c.area2() for c in pc1.cells) == square.area2()
    assert pc1.census() == set_census(pc1.cells)


def test_envelope_subdivision_matches_order_function_oracle(rng):
    """Lifting the interior points to one gives the order function's domains,
    with the hull of the interior points as the central domain."""
    cells = [FIG_TRIANGLE, LatticePolytope.from_points([(0, 0), (5, 0), (0, 2)])]
    while len(cells) < 8:
        p = random_polygon(rng, bound=3)
        if p is not None and p.interior_points():
            cells.append(p)
    for cell in cells:
        domains, central, _new_rays = _order_function_subdivision(cell)
        envelope = _envelope_subdivision(cell, cell.interior_points())
        assert sorted(domains, key=lambda c: c.vertices) == sorted(
            envelope, key=lambda c: c.vertices
        ), cell.vertices
        hull = LatticePolytope.from_points(cell.interior_points())
        assert set(central) == set(hull.vertices), cell.vertices


def test_planar_envelope_matches_double_description():
    """The planar rule gives the 4-D double description's cells, and both
    refuse the same liftings (a curve-phase lift on a cell that still has
    interior points) as not tiling; each cell also equals ``from_points`` of
    the points it keeps.  Cells: random polygons in [-6,6]^2 with both
    liftings, and the cells their fixed-point phase leaves, which the curve
    phase lifts."""
    rng = random.Random(6061)
    polygons = [p for p in (random_polygon(rng, bound=6) for _ in range(50)) if p is not None]
    cases = [(cell, kind) for cell in polygons for kind in ("interior", "edge")]
    for polygon in polygons[:8]:
        pc = crepant_fixed_point_phase(PolygonComplex.initial(polygon))
        cases += [(cell, "edge") for cell in pc.cells]
    outcomes = {"interior": 0, "edge": 0, "refused": 0}
    for cell, kind in cases:
        lifted = cell.interior_points() if kind == "interior" else cell.edge_interior_points()
        if not lifted:
            continue
        try:
            expected = sorted(dd_envelope_subdivision(cell, lifted), key=lambda c: c.vertices)
        except Resolve3dError:
            with pytest.raises(Resolve3dError, match="does not tile"):
                _envelope_subdivision(cell, lifted)
            outcomes["refused"] += 1
            continue
        got = sorted(_envelope_subdivision(cell, lifted), key=lambda c: c.vertices)
        assert got == expected, (cell.vertices, kind)
        _assert_cells_equal_hulls_of_their_points(got)
        outcomes[kind] += 1
    assert min(outcomes.values()) >= 10, outcomes


def _assert_cells_equal_hulls_of_their_points(cells):
    """Each cell, built from the ends of its lines or from the central hull,
    equals ``from_points`` of its tight set (the points it keeps): the same
    vertices, and kept points, interior and edge-interior points and tag
    equal to those the fresh hull finds from its columns, edges and counts."""
    for cell in cells:
        kept = vars(cell)
        hull = LatticePolytope.from_points(kept["_points"])
        assert cell.vertices == hull.vertices, cell
        fresh = (hull._points, hull._interior, hull._edge_interior, hull.tag)
        assert (kept["_points"], kept["_interior"], kept["_edge_interior"], cell.tag) == fresh, cell


def test_envelope_cells_equal_hulls_of_their_tight_sets(monkeypatch):
    """The cells that the phases make while resolving the C3 hulls, the cones
    of both conftest corpora and the triangles (-k,k,1), (k,k//3,1), (0,-k,1)
    for k up to 30, whose ring cells lie on lines up to 30 points long, equal
    ``from_points`` of their tight sets."""
    envelope = resolve3d._envelope_subdivision
    made = []

    def made_cells(cell, lifted):
        cells = envelope(cell, lifted)
        made.extend(cells)
        return cells

    monkeypatch.setattr(resolve3d, "_envelope_subdivision", made_cells)
    corpora = random_rank3_cones(27182818, 4, 300) + random_rank3_cones(20261019, 4, 300)
    for c in [make_cone([V(x, y, 1) for x, y in hull]) for hull in c3_hulls()] + corpora:
        resolve(c)
    for k in range(1, 31):
        resolve_piece(_scaling_triangle(k))
    _assert_cells_equal_hulls_of_their_points(made)
    longest = max(math.gcd(b[0] - a[0], b[1] - a[1]) for c in made for a, b in c.edges())
    assert len(made) >= 20000 and longest >= 30, (len(made), longest)


def test_fixed_point_phase_worked_example():
    pc = crepant_fixed_point_phase(PolygonComplex.initial(FIG_TRIANGLE))
    census = pc.census()
    assert census["interior_points"] == 0
    assert census["cells_with_interior_points"] == 0
    assert sum(c.area2() for c in pc.cells) == FIG_TRIANGLE.area2()


def test_fixed_point_phase_idempotent_on_cdv():
    q = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2)])
    pc = PolygonComplex.initial(q)
    assert crepant_fixed_point_phase(pc) == pc


def test_fixed_point_phase_order_independence(rng):
    """Sequential blow-ups in 20 random cell orders give the simultaneous endpoint."""
    targets = [FIG_TRIANGLE]
    p = random_polygon(rng, bound=3)
    if p is not None:
        targets.append(p)
    for polygon in targets:
        reference = crepant_fixed_point_phase(PolygonComplex.initial(polygon))
        for trial in range(20):
            shuffled = sequential_fixed_point_phase(polygon, random.Random(trial))
            assert shuffled == reference


# --------------------------------------------------------------------- curves


def test_curve_phase_worked_example_three_double_points():
    pc = crepant_fixed_point_phase(PolygonComplex.initial(FIG_TRIANGLE))
    pc = blowup_curve_phase(pc)
    census = pc.census()
    assert census["edge_interior_points"] == 0
    assert census["unit_parallelograms"] == 3
    assert census["basic_cells"] + 3 == census["cells"]


def test_curve_phase_strip_splits_into_squares():
    strip = LatticePolytope.from_points([(0, 0), (2, 0), (2, 1), (0, 1)])
    pc = blowup_curve_phase(PolygonComplex.initial(strip))
    assert len(pc.cells) == 2
    assert all(t["unit_parallelogram"] for t in pc.tags())
    assert {(1, 0), (1, 1)} <= {p for c in pc.cells for p in c.vertices}


def test_curve_phase_no_edge_points_unchanged():
    sq = LatticePolytope.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    pc = PolygonComplex.initial(sq)
    assert blowup_curve_phase(pc) == pc


def test_curve_phase_requires_fixed_point_phase_first():
    pc = PolygonComplex.initial(FIG_TRIANGLE)
    with pytest.raises(Resolve3dError, match="fixed-point"):
        blowup_curve_phase(pc)


def test_curve_phase_doubled_triangle_medial_subdivision():
    q = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2)])
    pc = blowup_curve_phase(PolygonComplex.initial(q))
    assert len(pc.cells) == 4
    assert all(t["basic"] for t in pc.tags())


def test_curve_phase_wide_strip_iterates():
    strip = LatticePolytope.from_points([(0, 0), (4, 0), (4, 1), (0, 1)])
    pc = blowup_curve_phase(PolygonComplex.initial(strip))
    assert len(pc.cells) == 4
    assert all(t["unit_parallelogram"] for t in pc.tags())


# --------------------------------------------------------------------- completions


def test_completions_worked_example_eight():
    pc = crepant_fixed_point_phase(PolygonComplex.initial(FIG_TRIANGLE))
    pc = blowup_curve_phase(pc)
    comps = list(completions(pc))
    assert len(comps) == 8
    for fan, psi in comps:
        assert len(fan.rays()) == 19
        assert len(fan.maximal_cones) == 30
        assert all(is_basic(c) for c in fan.maximal_cones)
        assert is_strictly_upper_convex(psi)
    # all eight triangulations are distinct
    assert len({fan.maximal_cones for fan, _ in comps}) == 8


def test_completions_single_square_two_small_resolutions():
    sq = LatticePolytope.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    comps = list(completions(PolygonComplex.initial(sq)))
    assert len(comps) == 2
    diagonals = set()
    for fan, psi in comps:
        assert len(fan.maximal_cones) == 2
        assert is_strictly_upper_convex(psi)
        shared = set(fan.maximal_cones[0].generators) & set(
            fan.maximal_cones[1].generators
        )
        diagonals.add(tuple(sorted(g.coords for g in shared)))
    assert len(diagonals) == 2


def test_completions_already_triangulated_singleton():
    tri = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
    comps = list(completions(PolygonComplex.initial(tri)))
    assert len(comps) == 1
    assert len(comps[0][0].maximal_cones) == 1


def test_completion_by_index_in_diagonal_choice_order():
    fig = blowup_curve_phase(crepant_fixed_point_phase(PolygonComplex.initial(FIG_TRIANGLE)))
    strip = blowup_curve_phase(
        PolygonComplex.initial(LatticePolytope.from_points([(0, 0), (4, 0), (4, 1), (0, 1)]))
    )
    for pc in (fig, strip):
        comps = list(completions(pc))
        # lexicographic in the diagonal choices: binary digits, most significant first
        by_choice = [
            _completion_for_bits(pc, bits)
            for bits in itertools.product((0, 1), repeat=len(pc.parallelograms))
        ]
        assert len(comps) == 2 ** len(pc.parallelograms)
        for i in range(len(comps)):
            assert completion(pc, i) == comps[i] == by_choice[i]
        k = len(pc.parallelograms)
        for bad in (-1, len(comps)):
            named = rf"out of range: 2\^{k} completions \({k} unit parallelograms\)$"
            with pytest.raises(Resolve3dError, match=named):
                completion(pc, bad)


def test_completion_precondition_scanned_once_per_piece(monkeypatch):
    fig = blowup_curve_phase(crepant_fixed_point_phase(PolygonComplex.initial(FIG_TRIANGLE)))
    tags = PolygonComplex.tags
    calls = []

    def counting_tags(pc):
        calls.append(pc)
        return tags(pc)

    monkeypatch.setattr(PolygonComplex, "tags", counting_tags)
    # the curve phase found the parallelograms already
    assert len(list(completions(fig))) == 8
    assert len(calls) == 0
    calls.clear()
    resolve(make_cone(FIG_CONE))
    # the census keeps running sums, so only the completion precondition scans the tags
    assert len(calls) == 1


def test_integer_certificate_matches_fraction_oracle(monkeypatch):
    """The integer wall folds give the heights of the rational eps-halving
    search on every completion (at most 16 per piece) of the C3 hulls, FIG
    and the 4x1 strip, including completions that need eps < 1."""
    integer_heights = resolve3d._composite_heights
    exponents = []

    def compared(pc, chi, tris):
        heights = integer_heights(pc, chi, tris)
        oracle, t = fraction_composite_heights(pc, chi, tris)
        assert heights == oracle
        exponents.append(t)
        return heights

    monkeypatch.setattr(resolve3d, "_composite_heights", compared)
    strip = [(0, 0), (4, 0), (4, 1), (0, 1)]
    for hull in c3_hulls() + [list(FIG_TRIANGLE.vertices), strip]:
        pc = blowup_curve_phase(
            crepant_fixed_point_phase(PolygonComplex.initial(LatticePolytope.from_points(hull)))
        )
        for bits in itertools.islice(itertools.product((0, 1), repeat=len(pc.parallelograms)), 16):
            _completion_for_bits(pc, bits)
    assert len(exponents) > 52 and max(exponents) >= 1


def _coupled(ineqs) -> bool:
    """Whether two inequalities share a variable."""
    seen: set = set()
    for lhs, _rhs in ineqs:
        if seen & set(lhs):
            return True
        seen |= set(lhs)
    return False


def _fm_values(solved):
    """``_fourier_motzkin``'s numerators over their common denominator as
    ``Fraction``s, None when infeasible; the denominator must be the least
    common one of the values."""
    if solved is None:
        return None
    numerators, den = solved
    values = {v: Fraction(x, den) for v, x in numerators.items()}
    assert all(isinstance(x, int) for x in numerators.values())
    assert den == math.lcm(*(x.denominator for x in values.values())), solved
    return values


def test_integer_fourier_motzkin_matches_fraction_oracle_on_seeded_systems(rng):
    """Integer elimination by occurrence gives the values of the rational
    elimination, or None with it, on random systems in a shuffled variable
    order: feasible and infeasible ones, with free and with coupled variables.
    The values come back as integer numerators over their least common
    denominator."""
    kinds = set()
    for _ in range(400):
        variables = rng.sample(range(10), rng.randint(1, 5))
        ineqs = []
        for _row in range(rng.randint(1, 5)):
            support = rng.sample(variables, rng.randint(1, min(3, len(variables))))
            ineqs.append(({v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in support}, rng.randint(-4, 4)))
        values = _fm_values(_fourier_motzkin(ineqs, variables))
        assert values == fraction_fourier_motzkin(ineqs, variables), (ineqs, variables)
        if values is not None:
            assert all(sum(c * values[v] for v, c in lhs.items()) >= rhs for lhs, rhs in ineqs)
            assert set(values) == set(variables)
        kinds.add("feasible" if values is not None else "infeasible")
        if set(variables) - {v for lhs, _rhs in ineqs for v in lhs}:
            kinds.add("free")
        if _coupled(ineqs):
            kinds.add("coupled")
    assert kinds == {"feasible", "infeasible", "free", "coupled"}
    # a zero coefficient is no occurrence, and a variable-free row only decides feasibility
    assert _fourier_motzkin([({0: 0, 1: 2}, 1)], [0, 1]) == ({0: 0, 1: 1}, 2)
    assert _fourier_motzkin([({0: 1, 1: -1}, 0), ({0: -1, 1: 1}, 1)], [0, 1]) is None


def test_integer_fourier_motzkin_matches_fraction_oracle_on_completion_systems(monkeypatch):
    """Every diagonal-choice system of at most 16 completions per piece of the
    C3 hulls, FIG and the 4x1 strip has the values of rational elimination."""
    integer_fm = resolve3d._fourier_motzkin
    systems = []

    def compared(ineqs, variables):
        solved = integer_fm(ineqs, variables)
        assert solved is not None and _fm_values(solved) == fraction_fourier_motzkin(ineqs, variables)
        systems.append(ineqs)
        return solved

    monkeypatch.setattr(resolve3d, "_fourier_motzkin", compared)
    strip = [(0, 0), (4, 0), (4, 1), (0, 1)]
    for hull in c3_hulls() + [list(FIG_TRIANGLE.vertices), strip]:
        pc = blowup_curve_phase(
            crepant_fixed_point_phase(PolygonComplex.initial(LatticePolytope.from_points(hull)))
        )
        for bits in itertools.islice(itertools.product((0, 1), repeat=len(pc.parallelograms)), 16):
            _completion_for_bits(pc, bits)
    assert len(systems) > 500 and sum(map(_coupled, systems)) > 100


def test_fold_matches_fraction_interpolation(rng):
    unimodular = unimodular_2x2(3)
    for _ in range(200):
        (p, q), (r, s) = rng.choice(unimodular)
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b, c = (a[0] + p, a[1] + r), (a[0] + q, a[1] + s)
        d = (rng.randint(-6, 6), rng.randint(-6, 6))
        h = {x: rng.randint(-9, 9) for x in (a, b, c, d)}
        # both orientations of the triangle abc
        for tri in ((a, b, c), (b, a, c)):
            assert sum(k * h[p] for p, k in _wall_terms((*tri, d))) == _affine_value(tri, h, d) - h[d]
    with pytest.raises(Resolve3dError, match="not unimodular"):
        _wall_terms(((0, 0), (2, 0), (0, 1), (1, -1)))


def test_one_adjugate_certificate_matches_three_pass_oracle(monkeypatch):
    """Each triangle's cone, basic test and representative come from one
    adjugate; fans, ray values and representatives equal those of the route
    through simplicial_cone, is_basic and with_linear_representatives, with
    int entries on both sides, on at most 16 completions per piece of the
    C3 hulls, FIG and the 4x1 strip.  Listing the completions in reverse
    order, on a copy of the complex that keeps nothing yet, gives the same
    fans and certificates, and every triangle cone the completions share
    equals simplicial_cone of its lifted triangle."""
    composite = resolve3d._composite_heights
    seen = []

    def recorded(pc, chi, tris):
        heights = composite(pc, chi, tris)
        seen.append((tris, heights))
        return heights

    monkeypatch.setattr(resolve3d, "_composite_heights", recorded)
    strip = [(0, 0), (4, 0), (4, 1), (0, 1)]
    compared = 0
    for hull in c3_hulls() + [list(FIG_TRIANGLE.vertices), strip]:
        pc = blowup_curve_phase(
            crepant_fixed_point_phase(PolygonComplex.initial(LatticePolytope.from_points(hull)))
        )
        listed = list(itertools.islice(itertools.product((0, 1), repeat=len(pc.parallelograms)), 16))
        forward = []
        for bits in listed:
            fan, psi = _completion_for_bits(pc, bits)
            oracle_fan, oracle_psi = three_pass_certificate(*seen[-1])
            assert fan == oracle_fan
            assert psi.ray_values == oracle_psi.ray_values
            assert psi.linear_reps == oracle_psi.linear_reps
            for f in (psi, oracle_psi):
                assert all(type(x) is int for x in f.ray_values.values())
                assert all(type(x) is int for m in f.linear_reps.values() for x in m.coords)
            forward.append((fan, psi))
            compared += 1
        fresh = PolygonComplex(pc.polygon, pc.cells, pc.lifted)
        assert [_completion_for_bits(fresh, bits) for bits in reversed(listed)] == forward[::-1]
        assert fresh.triangle_cones.keys() == pc.triangle_cones.keys()
        for t, (cone, dual) in pc.triangle_cones.items():
            lifted = [V(x, y, 1) for x, y in t]
            oracle = simplicial_cone(lifted)
            assert cone == oracle and cone.dim == oracle.dim == 3
            assert [[sum(a * b for a, b in zip(n, r.coords)) for r in lifted] for n in dual] == [
                [1, 0, 0], [0, 1, 0], [0, 0, 1]
            ]
            assert fresh.triangle_cones[t] == (cone, dual)
    assert compared > 500


def test_completion_refuses_non_unimodular_triangle():
    # a single triangle of area 2 has no wall, so only the basic test can refuse it;
    # its complex has no parallelograms to fill (the property itself would refuse the cell)
    pc = PolygonComplex.initial(LatticePolytope.from_points([(0, 0), (2, 0), (0, 1)]))
    vars(pc)["parallelograms"] = ()
    with pytest.raises(Resolve3dError, match="is not basic"):
        _completion_for_bits(pc, ())
    with pytest.raises(Resolve3dError, match="is not basic"):
        three_pass_certificate([((0, 0), (2, 0), (0, 1))], {(0, 0): 0, (2, 0): 0, (0, 1): 0})


def _star_subdivided(rng, rank: int = 3):
    """A fan made from one simplicial cone by star subdivisions, with heights
    raising each new ray above the current function by a shrinking margin,
    and the new rays in order."""
    fan = make_fan([make_cone(random_independent_generators(rng, rank))])
    values = {g.coords: Fraction(rng.randint(-3, 3)) for g in fan.rays()}
    new = []
    for k in range(rng.randint(1, 4)):
        cone = rng.choice(fan.maximal_cones)
        coeffs = [rng.randint(1, 3) for _ in cone.generators]
        v = primitive(V(*(sum(a * g.coords[i] for a, g in zip(coeffs, cone.generators)) for i in range(rank))))
        if v.coords in values:
            continue
        psi = with_linear_representatives(SupportFunction(fan=fan, ray_values=values))
        values[v.coords] = psi.linear_reps[fan.maximal_cones.index(cone)].pair(v) + Fraction(1, 100**k)
        fan = star_subdivision(fan, v)
        new.append(v.coords)
    scale = math.lcm(*(x.denominator for x in values.values()))
    return fan, {r: int(x * scale) for r, x in values.items()}, new, scale


def test_value_first_convexity_matches_membership_first_oracle(rng):
    """Comparing values before testing membership decides strict convexity
    as the membership-first loop does, on convex, flat and non-convex
    heights over star-subdivided fans."""
    outcomes = set()
    for _ in range(40):
        fan, convex, new, scale = _star_subdivided(rng)
        lin = [rng.randint(-3, 3) for _ in range(3)]
        flat = {r: sum(a * x for a, x in zip(lin, r)) for r in convex}
        lowered = dict(convex)
        lowered[new[-1]] -= 2 * scale
        for kind, values in (("convex", convex), ("flat", flat), ("lowered", lowered)):
            psi = with_linear_representatives(SupportFunction(fan=fan, ray_values=values))
            verdict = is_strictly_upper_convex(psi)
            assert verdict == membership_first_convexity(psi), (kind, fan, values)
            outcomes.add((kind, verdict))
    assert outcomes == {("convex", True), ("flat", False), ("lowered", False)}


@functools.lru_cache(maxsize=None)
def _certified_pieces() -> tuple[PolygonComplex, ...]:
    """The complexes whose every completion the certificate tests list: the
    C3 hulls and the one-piece cones of random_rank3_cones(27182818, 4, 300),
    each with at most 64 completions (the random corpus has one piece with
    2,048, whose listing alone would take longer than the rest)."""
    out = []
    for hull in c3_hulls():
        out.append(blowup_curve_phase(
            crepant_fixed_point_phase(PolygonComplex.initial(LatticePolytope.from_points(hull)))
        ))
    for c in random_rank3_cones(27182818, 4, 300):
        pieces = resolve(c)[1].pieces
        if len(pieces) == 1:
            out.append(pieces[0][0])
    return tuple(pc for pc in out if len(pc.parallelograms) <= 6)


def test_row_convexity_check_matches_membership_first_oracle_on_completions():
    """The global check on unpacked rows gives the membership-first verdict
    on every completion certificate of the C3 hulls and the one-piece random
    cones (each with at most 64 completions), and on each of them with one
    seeded ray's value moved by -2, -1, +1 and +2 and its representatives
    solved again, which makes both verdicts occur."""
    rng = random.Random(20261020)
    verdicts, certificates = set(), 0
    for pc in _certified_pieces():
        for fan, psi in completions(pc):
            assert is_strictly_upper_convex(psi) and membership_first_convexity(psi)
            ray = rng.choice(fan.rays()).coords
            for step in (-2, -1, 1, 2):
                values = {**psi.ray_values, ray: psi.ray_values[ray] + step}
                moved = with_linear_representatives(SupportFunction(fan=fan, ray_values=values))
                verdict = is_strictly_upper_convex(moved)
                assert verdict == membership_first_convexity(moved), (fan, values)
                verdicts.add(verdict)
            certificates += 1
    assert certificates > 500 and verdicts == {True, False}


def test_row_convexity_check_on_fraction_representatives_and_rank_two(rng):
    """Representatives with ``Fraction`` entries, and fans of rank 2, take the
    summed pairing and keep the membership-first verdict: completion
    certificates carried by (x, y, z) -> (2x, y, z) onto cones of index 2
    keep their verdict, and rank-2 star subdivisions give convex, flat and
    lowered heights."""
    fractions = 0
    for pc in _certified_pieces()[:12]:
        for fan, psi in itertools.islice(completions(pc), 4):
            for step in (0, 1, -1):
                values = dict(psi.ray_values)
                ray = fan.rays()[0].coords
                values[ray] += step
                verdict = is_strictly_upper_convex(
                    with_linear_representatives(SupportFunction(fan=fan, ray_values=values))
                )
                doubled = Fan(3, tuple(
                    simplicial_cone([V(2 * x, y, z) for x, y, z in (g.coords for g in cone.generators)])
                    for cone in fan.maximal_cones
                ))
                mapped = with_linear_representatives(SupportFunction(
                    fan=doubled, ray_values={(2 * x, y, z): h for (x, y, z), h in values.items()}
                ))
                fractions += any(type(a) is Fraction for m in mapped.linear_reps.values() for a in m.coords)
                assert is_strictly_upper_convex(mapped) == membership_first_convexity(mapped) == verdict
    assert fractions > 0
    outcomes = set()
    for _ in range(40):
        fan, convex, new, scale = _star_subdivided(rng, rank=2)
        lin = [rng.randint(-3, 3) for _ in range(2)]
        flat = {r: sum(a * x for a, x in zip(lin, r)) for r in convex}
        lowered = dict(convex)
        lowered[new[-1]] -= 2 * scale
        for kind, values in (("convex", convex), ("flat", flat), ("lowered", lowered)):
            psi = with_linear_representatives(SupportFunction(fan=fan, ray_values=values))
            verdict = is_strictly_upper_convex(psi)
            assert verdict == membership_first_convexity(psi), (kind, fan, values)
            outcomes.add((kind, verdict))
    assert outcomes == {("convex", True), ("flat", False), ("lowered", False)}


def test_row_convexity_check_tests_membership_of_rays_at_or_below_a_representative(monkeypatch):
    """On a hand-built Fan whose second cone has a generator inside the first
    cone, raised above the first cone's plane, the first cone's row pass
    brings that ray back with its own generators; only then is membership
    tested, and the ray inside is no violation.  A representative that does
    not interpolate is refused, with an integral or a ``Fraction`` entry."""
    first = simplicial_cone([V(0, 0, 1), V(3, 0, 1), V(0, 3, 1)])
    second = simplicial_cone([V(1, 1, 1), V(3, 0, 1), V(0, 3, 1)])
    fan = Fan(3, (first, second))
    values = {(0, 0, 1): 0, (3, 0, 1): 0, (0, 3, 1): 0, (1, 1, 1): 1}
    psi = with_linear_representatives(SupportFunction(fan=fan, ray_values=values))
    contains, calls = cones.Cone.contains, []

    def counted(cone, v):
        calls.append((cone, v))
        return contains(cone, v)

    monkeypatch.setattr(cones.Cone, "contains", counted)
    assert is_strictly_upper_convex(psi)
    assert calls == [(first, V(1, 1, 1))]
    assert membership_first_convexity(psi)
    # raising (1, 1, 1) less leaves it below the second cone's plane at (0, 0, 1): refused
    low = with_linear_representatives(SupportFunction(fan=fan, ray_values={**values, (1, 1, 1): -1}))
    assert not is_strictly_upper_convex(low) and not membership_first_convexity(low)
    pc = _certified_pieces()[0]
    fan, psi = completion(pc, 0)
    for bad in (Covector((0, 0, 1)), Covector((0, 0, Fraction(1, 2)))):
        moved = psi.linear_reps[0] + bad
        broken = SupportFunction(fan=fan, ray_values=psi.ray_values, linear_reps={**psi.linear_reps, 0: moved})
        with pytest.raises(DivisorError, match="representative of cone 0 does not interpolate"):
            is_strictly_upper_convex(broken)


def test_triangle_cone_reads_its_dual_off_the_plane_vertices():
    """Every triangle of every completion of the certified pieces, in its
    sorted order and with two vertices swapped: the cone has the generators
    and the facet normals of ``simplicial_cone`` of the lifts, and the dual
    rows pair to the identity with the lifts in the triangle's order, with
    det of both signs."""
    signs, triangles = set(), 0
    for pc in _certified_pieces():
        for fan, _psi in completions(pc):
            pass
        for t in pc.triangle_cones:
            oracle = simplicial_cone([V(x, y, 1) for x, y in t])
            for order in (t, (t[1], t[0], t[2])):
                cone, dual = _basic_triangle_cone(order, pc.rays)
                lifts = [(x, y, 1) for x, y in order]
                assert [[sum(a * b for a, b in zip(n, r)) for r in lifts] for n in dual] == [
                    [1, 0, 0], [0, 1, 0], [0, 0, 1]
                ], order
                assert cone.generators == tuple(V(*r) for r in lifts), order
                assert set(cone.generators) == set(oracle.generators)
                assert cone.inequalities == oracle.inequalities, order
                assert all(type(x) is int for n in dual for x in n)
                signs.add(adjugate(lifts)[0])
            assert _basic_triangle_cone(t, pc.rays)[0] == oracle
            triangles += 1
    assert triangles > 1000 and signs == {1, -1}


def test_composite_heights_match_round_fold_weight_search(monkeypatch):
    """The heights searched on the summed weights equal those of the weight
    search that folds every wall round by round and shifts the round folds,
    on every completion of the certified pieces; both the completions that
    stop at t = 0 and those that need a larger t occur."""
    composite = resolve3d._composite_heights
    exponents = []

    def compared(pc, chi, tris):
        heights = composite(pc, chi, tris)
        oracle, t = shifted_composite_heights(pc, chi, tris)
        assert heights == oracle
        exponents.append(t)
        return heights

    monkeypatch.setattr(resolve3d, "_composite_heights", compared)
    for pc in _certified_pieces():
        fresh = PolygonComplex(pc.polygon, pc.cells, pc.lifted, pc.frame)
        assert len(list(completions(fresh))) == 2 ** len(pc.parallelograms)
    assert len(exponents) > 500 and 0 in exponents and max(exponents) >= 1


def test_completions_precondition():
    bad = LatticePolytope.from_points([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(Resolve3dError, match="precondition"):
        completions(PolygonComplex.initial(bad))


# --------------------------------------------------------------------- resolve


def test_resolve_worked_example_census():
    fan, trace = resolve(make_cone(FIG_CONE))
    assert len(fan.rays()) == 19
    assert len(fan.maximal_cones) == 30
    assert all(is_basic(c) for c in fan.maximal_cones)
    assert trace.is_crepant_after_canonical
    assert [s.phase for s in trace.steps][0] == "canonical"
    assert trace.steps[-1].phase == "completion"
    assert trace.steps[-1].census_after["completions"] == 8
    # the assembled fan is a genuine fan (pairwise compatible)
    assert make_fan(list(fan.maximal_cones)) == fan
    # and refines the input with all-zero discrepancies
    rep = discrepancies(make_cone(FIG_CONE), fan)
    assert rep.is_crepant


def test_resolve_basic_cone_trivial():
    c = make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)])
    fan, trace = resolve(c)
    assert fan.maximal_cones == (c,)
    assert trace.steps == ()


def test_trace_keeps_each_resolved_piece():
    basic = make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)])
    _fan, trace = resolve(basic)
    assert len(trace.pieces) == 1 and trace.covers == ()
    for gens in ([V(0, 1, 0), V(0, 0, 1), V(2, -1, -1)], FIG_CONE, [V(5, -1, -1), V(0, 1, 0), V(0, 0, 1)]):
        fan, trace = resolve(make_cone(gens))
        assert len(trace.pieces) == trace.steps[0].census_after["pieces"]
        assert trace.covers == tuple(
            (i, cert) for i, (_pc, _m, _r, cert) in enumerate(trace.pieces) if cert is not None
        )
        # each piece's matrix carries its completion 0 onto cones of the final fan
        mapped = {
            frozenset(matrix.apply(g).coords for g in mc.generators)
            for pc, matrix, _rounds, _cert in trace.pieces
            for mc in completion(pc, 0)[0].maximal_cones
        }
        assert mapped == {frozenset(g.coords for g in mc.generators) for mc in fan.maximal_cones}


def test_trace_keeps_completion_zero_of_each_piece():
    _fan, trace = resolve(make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]))
    assert trace.first_completions == ()
    for gens in ([V(0, 1, 0), V(0, 0, 1), V(2, -1, -1)], FIG_CONE, [V(5, -1, -1), V(0, 1, 0), V(0, 0, 1)]):
        _fan, trace = resolve(make_cone(gens))
        assert trace.first_completions == tuple(completion(p[0], 0) for p in trace.pieces)


def test_resolve_index_two_piece_via_cover():
    # grading functional (3/2, 1, 1): canonical modification keeps an
    # index-2 piece which is resolved in its grading sublattice
    c = make_cone([V(0, 1, 0), V(0, 0, 1), V(2, -1, -1)])
    fan, trace = resolve(c)
    assert trace.covers and trace.covers[0][1].index == 2
    assert trace.is_crepant_after_canonical
    m = gorenstein_data(c)[0]
    for r in fan.rays():
        assert m.pair(r) >= 1  # no discrepancy below the canonical threshold


def test_resolve_noncanonical_multi_piece(rng):
    c = make_cone([V(5, -1, -1), V(0, 1, 0), V(0, 0, 1)])
    fan, trace = resolve(c)
    assert any(s.phase == "canonical" and s.new_rays for s in trace.steps)
    assert trace.is_crepant_after_canonical
    pieces = canonical_modification(c)
    for piece in pieces.maximal_cones:
        gd = gorenstein_data(piece)
        if gd[1] != 1:
            continue
        # rays of the final fan inside an index-one piece sit at level one
        for r in fan.rays():
            if piece.contains(r):
                assert gd[0].pair(r) == 1


def test_resolve_solves_no_piece_grading(monkeypatch):
    """Each piece keeps its grading from the floor normal, so ``resolve``
    solves the input's grading and, for the index check, each cover's only."""
    c = make_cone(METAMORPHIC_CONES["index-2 pieces"])
    calls = count_calls(monkeypatch, cones._solve_grading)
    _fan, trace = resolve(c)
    assert len(trace.pieces) == 3 and len(trace.covers) == 1
    assert len(calls) == 2


def test_resolve_census_matches_polygon(rng):
    checked = 0
    while checked < 5:
        p = random_polygon(rng, bound=3)
        if p is None:
            continue
        cone = gorenstein_cone_over(p)
        fan, trace = resolve(cone)
        assert len(fan.rays()) == len(p.lattice_points())
        assert len(fan.maximal_cones) == p.area2()
        assert all(is_basic(c) for c in fan.maximal_cones)
        checked += 1


def test_cell_facts_survive_the_phases():
    """On the resolved k=6 triangle every cell's kept facts were computed and
    read across rounds; tags and census equal those of fresh cell copies,
    and every cell's points equal the box scan."""
    _fan, trace = resolve(make_cone([V(-6, 6, 1), V(6, 2, 1), V(0, -6, 1)]))
    ((pc, _matrix, _rounds, _cert),) = trace.pieces
    fresh = PolygonComplex(
        polygon=LatticePolytope(pc.polygon.vertices),
        cells=tuple(LatticePolytope(c.vertices) for c in pc.cells),
    )
    assert all({"_points", "_interior", "_edge_interior"} <= c.__dict__.keys() for c in pc.cells)
    assert pc.tags() == fresh.tags()
    assert pc.census() == fresh.census()
    assert pc.census()["cells"] == 88 and sum(c.area2() for c in pc.cells) == 120
    for cell in pc.cells:
        assert cell.lattice_points() == box_lattice_points(cell)


@functools.lru_cache(maxsize=None)
def facts_corpus() -> tuple:
    """The 50 C3 hulls, FIG and 300 seeded random cones in [-4,4]^3."""
    hulls = [make_cone([V(x, y, 1) for x, y in hull]) for hull in c3_hulls()]
    return tuple(hulls + [make_cone(FIG_CONE)] + random_rank3_cones(20261019, 4, 300))


def test_final_fan_mapped_from_completion_zero_equals_rebuilt_fan():
    """Each final cone, mapped from its completion-0 cone with one adjugate
    per piece, equals ``simplicial_cone`` of its mapped generators; covers
    of index > 1, where the map has determinant the index, included."""
    covers = 0
    for c in facts_corpus():
        fan, trace = resolve(c)
        if trace.first_completions:
            assert fan.maximal_cones == rebuilt_final_fan(trace), c
        covers += len(trace.covers)
    assert covers >= 50


def test_point_table_maps_each_piece_point_once_into_the_input_lattice():
    """On both conftest cone corpora each piece's table holds every cell
    vertex, its lift (x, y, 1) and the lift's image under the piece's frame;
    the trace's new rays are images read from it, and the final cones,
    mapped with the table's images, equal ``simplicial_cone`` of their
    mapped generators, ``==`` and ``hash``."""
    frames = set()
    for c in random_rank3_cones(27182818, 4, 300) + random_rank3_cones(20261019, 4, 300):
        fan, trace = resolve(c)
        if not trace.first_completions:
            continue
        mapped_rounds = []
        for pc, matrix, rounds, _cert in trace.pieces:
            assert list(pc.rays) == sorted({p for cell in pc.cells for p in cell.vertices}), c
            for (x, y), (lift, image) in pc.rays.items():
                assert lift == LatticeVector((x, y, 1)) and image == matrix.apply(lift), c
            frames.add(abs(matrix.det()))
            mapped_rounds += [tuple(sorted(matrix.apply(V(x, y, 1)) for x, y in r.new_rays)) for r in rounds]
        assert [s.new_rays for s in trace.steps if s.phase.endswith("blow-up")] == mapped_rounds, c
        rebuilt = rebuilt_final_fan(trace)
        assert fan.maximal_cones == rebuilt, c
        assert [hash(k) for k in fan.maximal_cones] == [hash(k) for k in rebuilt], c
    assert {1, 2, 3} <= frames


def test_completions_from_the_point_table_equal_rebuilt_completions():
    """On every completion of the C3 hulls that have at most 64 completions,
    each cone over a triangle, built on the table's lifts, equals
    ``simplicial_cone`` of its lifted vertices, ``==`` and ``hash``; the
    fan's kept rays are the rays of its cones; and the certificate's ray
    values, read off the heights, and its representatives, built from the
    dual bases, are exact ``int`` tuples equal to those that
    ``with_linear_representatives`` solves for."""
    checked = 0
    for hull in c3_hulls():
        pc = resolve(make_cone([V(x, y, 1) for x, y in hull]))[1].pieces[0][0]
        if 2 ** len(pc.parallelograms) > 64:
            continue
        for fan, psi in completions(pc):
            for cone in fan.maximal_cones:
                fresh = simplicial_cone(list(cone.generators))
                assert cone == fresh and hash(cone) == hash(fresh), cone
            assert fan.rays() == Fan(3, fan.maximal_cones).rays()
            assert list(psi.ray_values) == [r.coords for r in fan.rays()]
            solved = with_linear_representatives(SupportFunction(fan, dict(psi.ray_values)))
            assert psi.ray_values == solved.ray_values and psi.linear_reps == solved.linear_reps
            assert all(type(x) is int for m in psi.linear_reps.values() for x in m.coords)
            checked += 1
    assert checked >= 300, checked


def test_cone_dimension_equals_rank_of_its_rays(monkeypatch):
    """Every cone built on the resolve path of the corpus and directly, by
    ``simplicial_cone``, ``cone_over_polygon``, ``dual_cone``,
    ``make_cone``, ``intersect_cones`` and the completion triangles, has
    ``dim``, the lattice rank less the number of its equations, equal to the
    rational rank of its rays and lineality."""
    build = cones._build_cone
    built = []

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cones, "_build_cone", recording)
    rng = random.Random(20261019)
    low = [c for c in (random_pointed_cone(rng, 3, 4, max_gens=2) for _ in range(60)) if c is not None]
    for c in facts_corpus() + tuple(low):
        intersect_cones(dual_cone(c), dual_cone(c))
        make_cone(list(c.generators))
        if c.is_full_dimensional:
            resolve(c)
    for c in floor_corpus()[1]:
        canonical_modification(c)
    assert any(c.dim < 3 for c in built) and any(c.lineality for c in built)
    for c in built:
        assert c.dim == fraction_rank([g.coords for g in c.generators] + [l.coords for l in c.lineality]), c


def _replayed_rounds(monkeypatch, cones) -> tuple[list, list]:
    """``resolve`` on each cone: per blow-up round, the round and the cells
    live after it, replayed from the round's centres and the cells that
    ``_envelope_subdivision`` made of each; and every cell it made.  The
    cells live after a phase's last round are the cells of its complex."""
    envelope = resolve3d._envelope_subdivision
    made: dict[int, list] = {}

    def recording(cell, lifted):
        made[id(cell)] = envelope(cell, lifted)
        return made[id(cell)]

    monkeypatch.setattr(resolve3d, "_envelope_subdivision", recording)
    replayed, cells = [], []
    for c in cones:
        made.clear()  # ids are unique only while the cells they name are alive
        for pc, _matrix, rounds, _cert in resolve(c)[1].pieces:
            live = {id(pc.polygon): pc.polygon}
            for rnd in rounds:
                for cell in rnd.centers:
                    del live[id(cell)]
                    live.update((id(n), n) for n in made[id(cell)])
                replayed.append((rnd, tuple(live.values())))
            assert [id(n) for n in sorted(live.values(), key=lambda n: n.vertices)] == list(map(id, pc.cells)), c
        cells += [n for new in made.values() for n in new]
    return replayed, cells


def test_kept_cell_tags_equal_fresh_tags_after_every_round(monkeypatch):
    """After every round of both phases the live cells keep their counts and
    tags, and each tag equals the tag of a fresh copy of the cell and the
    tag of its box scan."""
    replayed, _made = _replayed_rounds(monkeypatch, facts_corpus())
    for _rnd, live in replayed:
        assert all({"counts", "tag"} <= vars(c).keys() for c in live)
        assert [c.tag for c in live] == [LatticePolytope(c.vertices).tag for c in live]
        assert [c.tag for c in live] == [scanned_facts(c.vertices)[3] for c in live]
    assert len(replayed) >= 300


def _scaling_triangle(k: int):
    return make_cone([V(-k, k, 1), V(k, k // 3, 1), V(0, -k, 1)])


def test_resolve_builds_one_complex_per_phase(monkeypatch):
    """``resolve`` of the k=12 triangle, one piece whose both phases run
    several rounds, builds three polygon complexes: the initial one and one
    after each phase's last round."""
    init = PolygonComplex.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolygonComplex, "__init__", counted)
    trace = resolve(_scaling_triangle(12))[1]
    phases = [r.phase for r in trace.pieces[0][2]]
    assert len(trace.pieces) == 1 and phases.count("fixed-point-blow-up") > 1 and phases.count("curve-blow-up") > 1
    assert len(built) == 3 and built[-1] is trace.pieces[0][0]


def test_lifted_rounds_list_a_shared_edge_point_once():
    """A curve round lifts each point inside an edge of two of its cells
    once: every round of ``pc.lifted`` is sorted with no repeat and is the
    set of the round's centres.  FIG and the k=6 triangle each have such a
    point."""
    for c in (make_cone(FIG_CONE), _scaling_triangle(6)):
        pc, _matrix, rounds, _cert = resolve(c)[1].pieces[0]
        assert len(pc.lifted) == len(rounds)
        shared = 0
        for rnd, points in zip(rounds, pc.lifted):
            centres = [
                p for cell in rnd.centers
                for p in (cell.interior_points() if rnd.phase == "fixed-point-blow-up" else cell.edge_interior_points())
            ]
            assert list(points) == sorted(set(centres)), c
            shared += len(centres) - len(points)
        assert shared > 0, c


def test_census_off_the_phase_equals_box_scans(monkeypatch):
    """On the complexes that single-cell blow-ups make (``blowup_fixed_point``
    in a seeded order, each step recorded), on the curve phase after them,
    and on fresh ``PolygonComplex(polygon, cells)`` copies of each, the
    census equals the box-scan census with the points inside cell edges taken
    as one set: every lattice point of a face-to-face tiling is a vertex or
    inside one edge or one cell."""
    steps = []

    def recording(pc, index):
        steps.append(blowup_fixed_point(pc, index))
        return steps[-1]

    monkeypatch.setattr(conftest, "blowup_fixed_point", recording)
    curves = []
    for hull in c3_hulls():
        polygon = LatticePolytope.from_points(hull)
        for seed in range(4):
            curves.append(blowup_curve_phase(sequential_fixed_point_phase(polygon, random.Random(seed))))
    for pc in steps + curves:
        cells = tuple(LatticePolytope(c.vertices) for c in pc.cells)
        fresh = PolygonComplex(LatticePolytope(pc.polygon.vertices), cells)
        assert pc.census() == fresh.census() == set_census(pc.cells), pc
    assert len(steps) >= 300


def test_seeded_cell_facts_and_census_equal_box_scans(monkeypatch):
    """Every cell the envelope subdivision makes, the central one included,
    is made with its lattice, interior and edge-interior points and its tag,
    and each equals the box scan of a fresh copy; each round's census, whose
    edge-interior count is the polygon's points less the vertices and the
    interior points, equals the census of box scans of the cells live after
    the round, the points inside cell edges taken as one set.
    Corpus: the C3 hulls, FIG, 300 seeded cones, the k=6 and k=12 triangles."""
    replayed, made = _replayed_rounds(monkeypatch, facts_corpus() + (_scaling_triangle(6), _scaling_triangle(12)))
    for rnd, live in replayed:
        assert rnd.census_after == set_census(live), rnd
    for cell in made:
        assert {"_points", "_interior", "_edge_interior", "counts", "tag"} <= vars(cell).keys(), cell
        kept = (cell.lattice_points(), cell.interior_points(), cell.edge_interior_points(), cell.tag)
        assert kept == scanned_facts(cell.vertices), cell
        assert cell.tag == LatticePolytope(cell.vertices).tag, cell
    assert len(replayed) >= 300
    assert any(cell.interior_points() for cell in made) and any(cell.edge_interior_points() for cell in made)


def _fan_walls(fan: Fan) -> set:
    """(a, b, {c, d}) for each edge ab shared by triangles abc and abd of a
    fan of cones over height-one triangles."""
    far: dict = {}
    for cone in fan.maximal_cones:
        tri = sorted(g.coords[:2] for g in cone.generators)
        for k in range(3):
            far.setdefault(tuple(tri[:k] + tri[k + 1:]), []).append(tri[k])
    return {(a, b, frozenset(ds)) for (a, b), ds in far.items() if len(ds) == 2}


def test_triangle_cones_and_basic_wall_terms_equal_oracles():
    """On the corpus of the seeded-facts test, at most 16 completions per
    piece, on a copy of the complex that keeps nothing yet: each triangle
    cone, built from cross products, equals ``simplicial_cone`` of the
    lifted triangle, and its dual is det times the adjugate columns; and the
    wall terms that the piece keeps are ``_wall_terms`` of exactly the walls
    between two basic cells of the completions' triangulations, each once."""
    signs, pieces, kept = set(), 0, 0
    for c in facts_corpus() + (_scaling_triangle(6), _scaling_triangle(12)):
        for pc, _matrix, _rounds, _cert in resolve(c)[1].pieces:
            fresh = PolygonComplex(pc.polygon, pc.cells, pc.lifted)
            walls = set()
            for bits in itertools.islice(itertools.product((0, 1), repeat=len(fresh.parallelograms)), 16):
                walls |= _fan_walls(_completion_for_bits(fresh, bits)[0])
            basic, terms, _open_edges = fresh.triangle_cells
            between_basic = {
                (a, b, cd) for a, b, cd in walls
                if all(tuple(sorted((a, b, x))) in basic for x in cd)
            }
            kept_walls = [tuple(p for p, _k in wall_terms) for wall_terms in terms]
            assert terms == [_wall_terms(wall) for wall in kept_walls]
            kept_set = {(a, b, frozenset((c, d))) for a, b, c, d in kept_walls}
            assert len(kept_set) == len(kept_walls) and kept_set == between_basic
            kept += len(kept_walls)
            for t, (cone, dual) in fresh.triangle_cones.items():
                rows = [(x, y, 1) for x, y in t]
                det, cols = adjugate(rows)
                assert cone == simplicial_cone([LatticeVector(r) for r in rows]), t
                assert dual == tuple(tuple(det * x for x in col) for col in cols), t
                signs.add(det)
            pieces += 1
    assert pieces >= 350 and signs == {1, -1} and kept > 2000


def test_pick_shortcut_matches_box_interior_scan(monkeypatch):
    """Interior points, short-cut by Pick's theorem where there are none,
    equal the strict box scan on 1,200 seeded polygons and on lattice
    points and segments."""
    rng = random.Random(20261019)
    polygons = [LatticePolytope.from_points([(0, 0)]), LatticePolytope.from_points([(0, 0), (4, 2)])]
    while len(polygons) < 1202:
        p = random_polygon(rng, bound=rng.choice((1, 2, 4)))
        if p is not None:
            polygons.append(p)
    for p in polygons:
        assert p.interior_points() == box_interior_points(p), p
    empty = sum(not p.interior_points() for p in polygons)
    assert 300 <= empty <= len(polygons) - 300
    # a unimodular triangle 10^30 columns wide is answered without a column scan
    huge = LatticePolytope.from_points([(0, 0), (1, 0), (10**30, 1)])
    monkeypatch.setattr(LatticePolytope, "_points", property(lambda p: pytest.fail(f"{p} scanned")))
    assert huge.interior_points() == []


def test_resolve_rejects_bad_rank():
    with pytest.raises(Resolve3dError):
        resolve(make_cone([V(1, 0), V(0, 1)]))


def test_blowup_with_collinear_interior_points():
    # the central cell degenerates to a lattice segment shared as a wall
    polygon = LatticePolytope.from_points([(0, 0), (5, 0), (0, 2)])
    assert polygon.interior_points() == [(1, 1), (2, 1)]
    pc = blowup_fixed_point(PolygonComplex.initial(polygon), 0)
    assert sum(c.area2() for c in pc.cells) == polygon.area2()
    walls = {tuple(sorted((a, b))) for c in pc.cells for a, b in c.edges()}
    assert ((1, 1), (2, 1)) in walls
    cone = make_cone([V(0, 0, 1), V(5, 0, 1), V(0, 2, 1)])
    fan, _ = resolve(cone)
    assert len(fan.rays()) == len(polygon.lattice_points())
    assert len(fan.maximal_cones) == polygon.area2()


def test_resolve_random_rank3_cones(rng):
    """Arbitrary pointed full-dimensional input: multi-piece canonical
    modifications, covers where the index exceeds one, crepant phases."""
    from toresolve.cones import ConeError

    count = 0
    while count < 15:
        vs = [V(*(rng.randint(-3, 3) for _ in range(3))) for _ in range(rng.randint(3, 5))]
        try:
            c = make_cone(vs)
        except (ConeError, ValueError):
            continue
        if not (c.is_pointed and c.is_full_dimensional):
            continue
        count += 1
        fan, trace = resolve(c)
        assert trace.is_crepant_after_canonical
        pieces = canonical_modification(c)
        covered = {i for i, _ in trace.covers}
        for i, piece in enumerate(pieces.maximal_cones):
            gd = gorenstein_data(piece)
            assert gd is not None
            if i in covered:
                assert gd[1] > 1
                continue
            assert gd[1] == 1
            for r in fan.rays():
                if piece.contains(r):
                    assert gd[0].pair(r) == 1
        for mc in fan.maximal_cones:
            inside = [
                i for i, piece in enumerate(pieces.maximal_cones) if piece.contains_cone(mc)
            ]
            if inside and all(i not in covered for i in inside):
                assert is_basic(mc)


def test_resolve_of_index_one_cone_runs_no_double_description(monkeypatch):
    """Once the input cone is built, resolving a Gorenstein index-one cone
    (FIG, which is the k=3 triangle, the k=6 triangle, a cell with collinear
    interior points, the 4x1 strip) never calls extreme_rays."""
    assert not hasattr(resolve3d, "extreme_rays")
    inputs = [
        make_cone(FIG_CONE),
        make_cone([V(-6, 6, 1), V(6, 2, 1), V(0, -6, 1)]),
        make_cone([V(0, 0, 1), V(5, 0, 1), V(0, 2, 1)]),
        make_cone([V(0, 0, 1), V(4, 0, 1), V(4, 1, 1), V(0, 1, 1)]),
    ]
    calls = count_calls(monkeypatch, cones.extreme_rays)
    for c in inputs:
        fan, _trace = resolve(c)
        assert all(is_basic(mc) for mc in fan.maximal_cones)
    assert calls == []
    make_cone(FIG_CONE)
    assert len(calls) == 1  # the wrapper is live


METAMORPHIC_CONES = {
    "fig": FIG_CONE,
    "index-2 piece": [V(0, 1, 0), V(0, 0, 1), V(2, -1, -1)],
    "index-2 cone": [V(1, 0, 0), V(0, 1, 0), V(1, 1, 2)],
    "non-canonical": [V(5, -1, -1), V(0, 1, 0), V(0, 0, 1)],
    "quadrilateral": [V(0, 0, 1), V(3, 0, 1), V(2, 2, 1), V(0, 1, 1)],
    "index-2 pieces": [V(-3, 1, -3), V(1, -2, -2), V(3, 0, -1)],
    "index-5 piece": [V(-3, -3, -2), V(0, -2, -1), V(2, 0, 3)],
}


def _resolution_invariants(c):
    """Ray and cone counts, |det| of every final cone (checked to equal the
    cover index of the piece holding it) and the completion counts."""
    fan, trace = resolve(c)
    pieces = canonical_modification(c).maximal_cones
    index = [1 if cert is None else cert.index for _pc, _m, _rounds, cert in trace.pieces]
    dets = []
    for mc in fan.maximal_cones:
        (owner,) = [i for i, piece in enumerate(pieces) if piece.contains_cone(mc)]
        dets.append(abs(IntMatrix.from_vectors(mc.generators).det()))
        assert dets[-1] == index[owner], (c, mc)
    counts = sorted(s.census_after["completions"] for s in trace.steps if s.phase == "completion")
    return len(fan.rays()), len(fan.maximal_cones), sorted(dets), counts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(METAMORPHIC_CONES)),
    ops=st.lists(st.tuples(st.permutations(range(3)), st.integers(-2, 2)), min_size=1, max_size=4),
    flip=st.booleans(),
)
def test_resolve_invariant_under_unimodular_change_of_basis(name, ops, flip):
    """A GL(3,Z) change of basis changes none of the resolution invariants;
    the index-2 inputs send non-unimodular mapped cones through simplicial_cone."""
    u = unimodular_from_ops(ops, flip)
    gens = METAMORPHIC_CONES[name]
    moved = _resolution_invariants(make_cone([u.apply(g) for g in gens]))
    assert moved == _resolution_invariants(make_cone(gens))
