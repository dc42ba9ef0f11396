import operator
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from toresolve.lattice import (
    Covector,
    IntMatrix,
    LatticeError,
    LatticeVector,
    extended_gcd_vector,
    hermite_normal_form,
    hyperplane_basis,
    integer_kernel,
    invariant_factors,
    lattice_determinant,
    minimal_integral_scale,
    primitive,
    rational_solve,
    smith_normal_form,
)

from conftest import fraction_rank, gauss_jordan_solve


def V(*coords):
    return LatticeVector(tuple(coords))


def test_primitive_examples():
    assert primitive(V(4, 6)) == V(2, 3)
    assert primitive(V(0, 0, 7)) == V(0, 0, 1)
    # the primitive generators of the dual cone in the running 2D example
    assert primitive(V(5, -4)) == V(5, -4)


def test_primitive_zero_vector_rejected():
    with pytest.raises(LatticeError):
        primitive(V(0, 0))


def test_primitive_idempotent(rng):
    for _ in range(200):
        v = V(*(rng.randint(-30, 30) for _ in range(rng.randint(1, 4))))
        if v.is_zero:
            continue
        p = primitive(v)
        assert primitive(p) == p
        # positively proportional
        assert any(c != 0 for c in p.coords)


def test_lattice_determinant_examples():
    assert lattice_determinant([V(1, 0), V(4, 5)]) == 5
    assert lattice_determinant([V(1, 0), V(0, 1)]) == 1
    # Smith normal form by hand: invariant factors 1, 1, 2
    assert lattice_determinant([V(1, 1, 0), V(1, 0, 1), V(0, 1, 1)]) == 2


def test_lattice_determinant_dependent_rejected():
    with pytest.raises(LatticeError):
        lattice_determinant([V(1, 2), V(2, 4)])


def test_lattice_determinant_unimodular_invariance(rng):
    for _ in range(50):
        vs = [V(*(rng.randint(-5, 5) for _ in range(3))) for _ in range(3)]
        m = IntMatrix.from_vectors(vs)
        if m.det() == 0:
            continue
        d = lattice_determinant(vs)
        shuffled = list(vs)
        rng.shuffle(shuffled)
        assert lattice_determinant(shuffled) == d
        # add an integer multiple of one vector to another
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-3, 3)
        modified = list(vs)
        modified[i] = modified[i] + k * modified[j]
        assert lattice_determinant(modified) == d


def test_hnf_identity():
    i3 = IntMatrix.identity(3)
    h, u = hermite_normal_form(i3)
    assert h == i3 and u == i3


def test_hnf_small_example():
    a = IntMatrix(((2, 4), (1, 3)))
    h, u = hermite_normal_form(a)
    assert (u * a).rows == h.rows
    assert abs(u.det()) == 1
    # row-style triangular shape with positive pivots
    assert h.rows[0][0] == 1 and h.rows[1][0] == 0 and h.rows[1][1] == 2


def test_hnf_round_trip_random(rng):
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(n)))
        h, u = hermite_normal_form(a)
        assert (u * a).rows == h.rows
        assert abs(u.det()) == 1
        # reconstruct A = U^-1 * H exactly
        assert (u.inverse_unimodular() * h).rows == a.rows


def test_inverse_unimodular_matches_sympy():
    rng = random.Random(20261018)
    for rank in (2, 3, 4):
        for _ in range(25):
            rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
            for _ in range(12):
                i, j = rng.sample(range(rank), 2)
                k = rng.choice((-3, -2, -1, 1, 2, 3))
                rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
                if rng.random() < 0.3:
                    rows[i] = [-x for x in rows[i]]
            m = IntMatrix(tuple(map(tuple, rows)))
            expected = sympy.Matrix(rows).inv()
            assert m.inverse_unimodular().rows == tuple(tuple(int(x) for x in r) for r in expected.tolist())
    with pytest.raises(LatticeError, match="not unimodular"):
        IntMatrix(((2, 0), (0, 1))).inverse_unimodular()


def test_snf_shape_and_transforms(rng):
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(n)))
        s, u, v = smith_normal_form(a)
        assert (u * a * v).rows == s.rows
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [s.rows[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert s.rows[i][j] == 0
        nonzero = [d for d in diag if d]
        for d1, d2 in zip(nonzero, nonzero[1:]):
            assert d2 % d1 == 0 and d1 > 0


def random_small_matrices(seed: int = 20261019, count: int = 200) -> list[IntMatrix]:
    """``count`` seeded integer matrices of 1 to 4 rows and 1 to 5 columns,
    entries in [-6, 6], some with a row that repeats a multiple of another."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            rows[-1] = [rng.choice((-2, 1, 3)) * x for x in rows[0]]
        out.append(IntMatrix(tuple(map(tuple, rows))))
    return out


def test_snf_diagonal_matches_sympy_invariant_factors():
    for a in random_small_matrices():
        s, u, v = smith_normal_form(a)
        assert (u * a * v).rows == s.rows
        diagonal = tuple(s.rows[i][i] for i in range(min(a.nrows, a.ncols)))
        assert diagonal == tuple(int(d) for d in sympy_invariant_factors(sympy.Matrix(a.rows))), a


def random_matrices_up_to_6x6(seed: int = 20261021, count: int = 400) -> list[IntMatrix]:
    """``count`` seeded matrices of 0 to 6 rows and 0 to 6 columns (a matrix
    without rows has no columns either): zero matrices, ones whose last row
    repeats the first, and entries up to 10**30."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        bound = rng.choice((0, 3, 10**6, 10**30))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        out.append(IntMatrix(tuple(map(tuple, rows))))
    return out


def test_snf_of_every_shape_up_to_6x6_matches_sympy():
    """S = U*A*V is diagonal, U and V are unimodular, and the diagonal is
    sympy's invariant factors, on tall, wide, empty, zero and rank-deficient
    matrices with entries up to 10**30."""
    shapes, deficient, huge = set(), 0, 0
    for a in random_matrices_up_to_6x6():
        s, u, v = smith_normal_form(a)
        assert (u * a * v).rows == s.rows, a
        assert abs(u.det()) == 1 and abs(v.det()) == 1, a
        assert all(x == 0 for i, r in enumerate(s.rows) for j, x in enumerate(r) if i != j), a
        diagonal = tuple(s.rows[i][i] for i in range(min(a.nrows, a.ncols)))
        assert diagonal == tuple(int(d) for d in sympy_invariant_factors(sympy.Matrix(a.rows))), a
        shapes.add((a.nrows, a.ncols))
        deficient += any(x == 0 for x in diagonal)
        huge += any(abs(x) > 10**20 for r in a.rows for x in r)
    assert shapes == {(0, 0)} | {(m, n) for m in range(1, 7) for n in range(7)}
    assert deficient >= 50 and huge >= 50, (deficient, huge)


def _row_lattice(rows) -> sympy.Matrix:
    """Sympy's Hermite form of the transpose: a canonical basis, as columns,
    of the lattice the rows span."""
    return sympy_hnf(sympy.Matrix(rows).T)


def test_hnf_spans_the_row_lattice_sympy_finds():
    """Sympy's Hermite form is column-style: on this matrix it gives
    [[12, 0, 10], [0, 6, 0], [0, 0, 2]], while ours is row-style.  So the
    check is that both span the same row lattice, and H = U * A."""
    a = IntMatrix(((2, 4, 4), (-6, 6, 12), (10, -4, -16)))
    assert hermite_normal_form(a)[0].rows == ((2, 4, 4), (0, 6, 0), (0, 0, 12))
    assert sympy_hnf(sympy.Matrix(a.rows)) == sympy.Matrix([[12, 0, 10], [0, 6, 0], [0, 0, 2]])
    for a in random_small_matrices():
        h, u = hermite_normal_form(a)
        assert (u * a).rows == h.rows and abs(u.det()) == 1
        assert _row_lattice(h.rows) == _row_lattice(a.rows), a


def test_lattice_vector_refuses_non_integer_entries():
    with pytest.raises(LatticeError, match="1.5"):
        LatticeVector((1.5, 2, 3))
    with pytest.raises(LatticeError, match="Fraction"):
        LatticeVector((Fraction(2), 0))
    with pytest.raises(LatticeError, match="'2'"):
        LatticeVector((1, "2"))
    v = LatticeVector((True, 0, 1))
    assert v.coords == (1, 0, 1) and all(type(c) is int for c in v.coords)


def test_int_matrix_refuses_non_integer_entries():
    with pytest.raises(LatticeError, match="matrix entry 1.5 is not an integer"):
        IntMatrix(((1.5, 2), (Fraction(7, 2), 1)))
    with pytest.raises(LatticeError, match=r"matrix entry Fraction\(7, 2\)"):
        IntMatrix(((1, 2), (Fraction(7, 2), 1)))
    with pytest.raises(LatticeError, match=r"matrix entry Fraction\(2, 1\)"):
        IntMatrix(((Fraction(2), 0), (0, 1)))
    m = IntMatrix(((True, 0), (0, 1)))
    assert m.rows == ((1, 0), (0, 1)) and all(type(x) is int for r in m.rows for x in r)


def test_invariant_factors_divisibility():
    facs = invariant_factors(IntMatrix(((12, 6, 4), (3, 9, 6), (2, 16, 14))))
    assert facs == (1, 10, 30)


def test_integer_kernel_saturated():
    kern = integer_kernel(IntMatrix(((1, 2, 3),)))
    assert len(kern) == 2
    for k in kern:
        assert sum(a * b for a, b in zip((1, 2, 3), k.coords)) == 0
    # saturation: (1,1,-1) lies in the kernel lattice spanned by the basis
    sol = rational_solve(
        [LatticeVector(tuple(k.coords[i] for k in kern)) for i in range(3)],
        [1, 1, -1],
    )
    assert sol is not None and sol.is_integral


def test_rational_solve_inconsistent():
    assert rational_solve([V(1, 0), V(1, 0)], [1, 2]) is None
    with pytest.raises(LatticeError, match="empty system"):
        rational_solve([], [])


def test_rational_solve_matches_gauss_jordan():
    """2,000 seeded systems of each rank 0..5 (1-5 unknowns, 1-6 rows,
    entries of the factors in [-3, 3]): the adjugate solution equals the
    Gauss-Jordan one, free variables at zero, None when inconsistent."""
    rng = random.Random(20261019)
    seen = {"inconsistent": 0, "all zero": 0, "free variable before a pivot": 0}
    for rank in range(6):
        drawn = 0
        while drawn < 2000:
            n, m = rng.randint(max(rank, 1), 5), rng.randint(max(rank, 1), 6)
            left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(m)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
            zeroed = rng.sample(range(n), rng.randint(0, n - rank))
            for row in right:
                for j in zeroed:
                    row[j] = 0
            a = [tuple(sum(x * row[j] for x, row in zip(l, right)) for j in range(n)) for l in left]
            if fraction_rank(a) != rank:
                continue
            drawn += 1
            if rng.random() < 0.5:  # consistent by construction
                x = [rng.randint(-3, 3) for _ in range(n)]
                rhs = [sum(map(operator.mul, r, x)) for r in a]
            else:
                rhs = [rng.randint(-3, 3) * rng.randint(0, 1) for _ in a]
            rows = [LatticeVector(r) for r in a]
            sol = rational_solve(rows, rhs)
            assert sol == gauss_jordan_solve(rows, rhs), (a, rhs)
            seen["inconsistent"] += sol is None
            seen["all zero"] += rank == 0 and not any(rhs)
            seen["free variable before a pivot"] += any(j < rank for j in zeroed)
    assert min(seen.values()) >= 200, seen


def test_minimal_integral_scale():
    k, witness = minimal_integral_scale([V(1, 0), V(4, 5)], [1, 1])
    assert k == 5
    assert witness.pair(V(1, 0)) == 5 and witness.pair(V(4, 5)) == 5


def test_extended_gcd_vector():
    g, w = extended_gcd_vector((12, 18, 10))
    assert g == 2
    assert sum(a * b for a, b in zip(w, (12, 18, 10))) == 2


def test_hyperplane_basis_standard_and_general():
    b = hyperplane_basis(Covector((Fraction(0), Fraction(0), Fraction(1))))
    assert b == IntMatrix.identity(3)
    m = Covector((Fraction(2), Fraction(-3), Fraction(5)))
    b2 = hyperplane_basis(m)
    assert abs(b2.det()) == 1
    inv = b2.inverse_unimodular()
    # last coordinate in the adapted basis is the pairing with m
    for v in [V(1, 1, 1), V(3, -2, 0), V(0, 4, -1)]:
        assert inv.apply(v).coords[-1] == m.pair(v)


def reference_hyperplane_basis(m: Covector) -> IntMatrix:
    """The adapted basis through the matrix routes: ``integer_kernel`` of m,
    its ``hermite_normal_form``, and the extended gcd of m as last column."""
    mi = m.primitive().integral_vector()
    kernel = integer_kernel(IntMatrix((mi.coords,)))
    kh, _ = hermite_normal_form(IntMatrix.from_vectors(kernel))
    _g, w = extended_gcd_vector(mi.coords)
    return IntMatrix(tuple(zip(*([list(r) for r in kh.rows if any(r)] + [w]))))


def test_hyperplane_basis_on_rows_matches_matrix_route():
    """The basis built on integer rows equals, matrix for matrix, the one of
    the kernel and Hermite matrix routines, on seeded covectors of ranks 1
    to 5 with integer and ``Fraction`` entries; the zero covector is
    refused."""
    rng = random.Random(20261020)
    seen = set()
    for rank in range(1, 6):
        for _ in range(600):
            den = rng.choice((1, 1, 2, 3, 7))
            m = Covector(tuple(Fraction(rng.randint(-9, 9), den) for _ in range(rank)))
            if m.is_zero:
                continue
            b = hyperplane_basis(m)
            assert b == reference_hyperplane_basis(m), m
            seen.add((rank, m.is_integral))
    assert seen == {(rank, integral) for rank in range(1, 6) for integral in (True, False)}
    with pytest.raises(LatticeError):
        hyperplane_basis(Covector((0, 0, 0)))


def test_covector_denominator_and_pairing():
    m = Covector((Fraction(1), Fraction(-3, 5)))
    assert m.denominator == 5
    assert m.pair(V(4, 5)) == 1
    assert m.primitive() == Covector((Fraction(5), Fraction(-3)))


def test_covector_stores_integral_entries_as_int():
    m = Covector((Fraction(4, 2), 1))
    assert all(type(c) is int for c in m.coords)
    assert m == Covector((2, 1)) and hash(m) == hash(Covector((2, 1)))
    assert type(m.pair(V(3, -1))) is int and m.pair(V(3, -1)) == 5
    q = Covector((1, Fraction(-3, 5)))
    assert q.coords == (1, Fraction(-3, 5)) and type(q.coords[1]) is Fraction
    assert repr(q) == "Covector(1, -3/5)"
    assert q.pair(V(1, 1)) == Fraction(2, 5) and type(q.pair(V(1, 1))) is Fraction
