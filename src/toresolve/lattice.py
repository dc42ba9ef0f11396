"""Exact integer-lattice linear algebra: vectors, pairings, normal forms.

Everything here is bit-exact: lattice vectors carry Python integers,
functionals carry ``int`` entries where integral and ``fractions.Fraction``
entries otherwise, and the normal-form routines (Hermite, Smith) track
unimodular transforms so that callers can change bases, compute sublattice
indices and solve integral systems without ever touching floating point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction


class LatticeError(ValueError):
    """Domain error raised by lattice-level operations."""


def _integer_tuple(values, what: str, error: type[ValueError] = LatticeError) -> tuple[int, ...]:
    """The entries of the sequence ``values`` as ``int``; a float or a
    ``Fraction``, even an integral one, raises ``error`` naming the entry."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(c for c in values if not hasattr(type(c), "__index__"))
        raise error(f"{what} entry {bad!r} is not an integer") from None


@dataclass(frozen=True, slots=True)
class LatticeVector:
    """Integer point of the lattice N (coordinates w.r.t. a fixed basis); an
    entry that is not an integer, such as a float or a Fraction, is refused."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _integer_tuple(self.coords, "lattice vector"))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "LatticeVector":
        return LatticeVector(tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __lt__(self, other: "LatticeVector") -> bool:
        return self.coords < other.coords

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        return f"LatticeVector{self.coords}"


def _int_or_fraction(c) -> int | Fraction:
    if type(c) is int:
        return c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


@dataclass(frozen=True, slots=True)
class Covector:
    """Rational functional on N, i.e. an element of M_Q.

    Integral entries are stored as ``int``, the others as ``Fraction``.
    The pairing against lattice vectors is exact; ``denominator`` is the
    least kappa >= 1 making kappa times the covector integral.
    """

    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(_int_or_fraction, self.coords)))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def denominator(self) -> int:
        return math.lcm(*(c.denominator for c in self.coords)) if self.coords else 1

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1

    def pair(self, v: LatticeVector) -> int | Fraction:
        return sum(map(operator.mul, self.coords, v.coords))

    def __add__(self, other: "Covector") -> "Covector":
        return Covector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Covector") -> "Covector":
        return Covector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, k) -> "Covector":
        return Covector(tuple(Fraction(k) * a for a in self.coords))

    __rmul__ = __mul__

    def __lt__(self, other: "Covector") -> bool:
        return self.coords < other.coords

    def __iter__(self):
        return iter(self.coords)

    def integral_vector(self) -> LatticeVector:
        """The covector as a lattice vector of the dual lattice (must be integral)."""
        if not self.is_integral:
            raise LatticeError(f"covector {self.coords} is not integral")
        return LatticeVector(tuple(int(c) for c in self.coords))

    def primitive(self) -> "Covector":
        """Primitive integral covector on the same ray."""
        den = self.denominator
        cleared = [c.numerator * (den // c.denominator) for c in self.coords]
        g = math.gcd(*cleared)
        if g == 0:
            raise LatticeError("cannot primitivize the zero covector")
        return Covector(tuple(c // g for c in cleared))

    def __repr__(self):
        entries = ", ".join(str(c) for c in self.coords)
        return f"Covector({entries})"


def _made(cls, coords: tuple[int, ...]):
    """A ``LatticeVector`` or ``Covector`` on a tuple of ``int`` that its
    caller computed: nothing is checked or converted, unlike the public
    constructors."""
    v = object.__new__(cls)
    object.__setattr__(v, "coords", coords)
    return v


def primitive(v: LatticeVector) -> LatticeVector:
    """Divide v by the gcd of its coordinates.

    The result is the unique primitive lattice vector positively
    proportional to v.
    """
    if v.is_zero:
        raise LatticeError("the zero vector has no primitive representative")
    g = math.gcd(*v.coords)
    return LatticeVector(tuple(c // g for c in v.coords))


def _turn(o, a, b) -> int:
    """Twice the signed area of the triangle oab: positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Vertices of the convex hull in counterclockwise order (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all collinear
        return [min(pts), max(pts)]
    return hull


# ---------------------------------------------------------------------------
# integer matrices and normal forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix (tuple of row tuples); an entry that is not
    an integer is refused, as in ``LatticeVector``."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(_integer_tuple(r, "matrix") for r in self.rows))
        if self.rows and len({len(r) for r in self.rows}) != 1:
            raise LatticeError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(map(tuple, _identity_rows(n))))

    @classmethod
    def from_vectors(cls, vs) -> "IntMatrix":
        return cls(tuple(tuple(v.coords) for v in vs))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else IntMatrix(())

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        bt = list(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.rows
            )
        )

    def det(self) -> int:
        if self.nrows != self.ncols:
            raise LatticeError("determinant of a non-square matrix")
        return _det(self.rows)

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a unimodular matrix (integer entries): det times the adjugate."""
        if self.nrows != self.ncols:
            raise LatticeError("inverse of a non-square matrix")
        d, cols = adjugate(self.rows) if self.rows else (1, [])
        if abs(d) != 1:
            raise LatticeError("matrix is not unimodular")
        return IntMatrix(tuple(zip(*((d * x for x in col) for col in cols))))

    def apply(self, v: LatticeVector) -> LatticeVector:
        return LatticeVector(tuple(sum(a * x for a, x in zip(r, v.coords)) for r in self.rows))


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _hermite_rows(h: list[list[int]], u: list[list[int]]) -> None:
    """Reduce the rows of ``h`` in place to row-style Hermite normal form,
    applying every row operation to the rows of ``u`` as well.

    Pivots are positive, entries below a pivot vanish and entries above are
    reduced into [0, pivot).  Classical gcd-based row reduction; fine at
    desk scale.
    """
    m = len(h)
    row = 0
    for col in range(len(h[0]) if h else 0):
        while True:
            nz = [i for i in range(row, m) if h[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][col]))
            if piv != row:
                h[row], h[piv] = h[piv], h[row]
                u[row], u[piv] = u[piv], u[row]
            done = True
            for i in range(row + 1, m):
                if h[i][col] != 0:
                    q = h[i][col] // h[row][col]
                    h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if row < m and h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            for i in range(row):
                q = h[i][col] // h[row][col]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[row])]
            row += 1


def hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form: returns (H, U) with H = U*A, |det U| = 1
    (see ``_hermite_rows``)."""
    h = [list(r) for r in a.rows]
    u = _identity_rows(a.nrows)
    _hermite_rows(h, u)
    return IntMatrix(h), IntMatrix(u)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (S, U, V) with S = U*A*V diagonal, d1 | d2 | ...

    U and V are unimodular.  Hermite passes alternate until S is diagonal:
    one on the columns (the rows of S^T, its operations kept in V^T), then
    one on the rows (kept in U) unless S is diagonal: its pivots are then
    positive, so the row pass would change nothing.  When some d_i does not
    divide a later d_j, row j is added to row i and the passes run again.

    The loop ends.  After the first pair of passes the leading pivot sits
    in the corner: a row pass leaves there the gcd of the first column, a
    column pass the gcd of the first row, each a divisor of the pivot
    before it.  Once the pivot stops shrinking it divides its row and
    column, the passes clear both, and they go on with the rest of the
    matrix alone.  The merge is made for the least such i, when every
    earlier d divides all later ones, so the passes keep d_1 ... d_(i-1)
    and bring d_i down to at most gcd(d_i, d_j): the diagonal, with as many
    nonzero entries as the rank, decreases lexicographically.
    """
    s = [list(r) for r in a.rows]
    u, vt = _identity_rows(a.nrows), _identity_rows(a.ncols)
    while s and s[0]:
        st = [list(c) for c in zip(*s)]
        _hermite_rows(st, vt)
        s = [list(r) for r in zip(*st)]
        if _off_diagonal(s):
            _hermite_rows(s, u)
            if _off_diagonal(s):
                continue
        d = [s[i][i] for i in range(min(len(s), len(s[0])))]
        pair = next(((i, j) for i, j in itertools.combinations(range(len(d)), 2) if d[i] and d[j] % d[i]), None)
        if pair is None:
            break
        i, j = pair
        s[i] = [x + y for x, y in zip(s[i], s[j])]
        u[i] = [x + y for x, y in zip(u[i], u[j])]
    return IntMatrix(s), IntMatrix(u), IntMatrix(zip(*vt))


def _off_diagonal(s: list[list[int]]) -> bool:
    return any(x for i, r in enumerate(s) for j, x in enumerate(r) if i != j)


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal entries d1 | d2 | ... of the Smith normal form."""
    s, _, _ = smith_normal_form(a)
    return tuple(
        s.rows[i][i] for i in range(min(s.nrows, s.ncols)) if s.rows[i][i] != 0
    )


def lattice_determinant(vs: list[LatticeVector]) -> int:
    """Index of the subgroup sum(Z*v_i) inside the lattice on its linear span.

    Computed as the product of the Smith invariant factors of the matrix
    with rows v_i; requires the v_i to be linearly independent.
    """
    if not vs:
        raise LatticeError("empty generating set")
    facs = invariant_factors(IntMatrix.from_vectors(vs))
    if len(facs) != len(vs):
        raise LatticeError("vectors are linearly dependent")
    return math.prod(facs)


def _det(rows) -> int:
    """Determinant of a square integer matrix given by rows: by cofactors in
    rank 3, by fraction-free (Bareiss) elimination otherwise."""
    n = len(rows)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def adjugate(rows: list[tuple[int, ...]]) -> tuple[int, list[tuple[int, ...]]]:
    """Determinant and adjugate columns of a square integer matrix given by rows.

    Column i of adj(G) pairs with row j of G to det(G) if i == j and to 0
    otherwise.  In rank 3 the columns are cross products of row pairs;
    other ranks take signed minors.
    """
    n = len(rows)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        cols = [
            (e * i - f * h, f * g - d * i, d * h - e * g),
            (c * h - b * i, a * i - c * g, b * g - a * h),
            (b * f - c * e, c * d - a * f, a * e - b * d),
        ]
    else:
        minor = lambda i, k: [r[:k] + r[k + 1 :] for j, r in enumerate(rows) if j != i]
        cols = [tuple((-1) ** (i + k) * _det(minor(i, k)) for k in range(n)) for i in range(n)]
    return sum(x * y for x, y in zip(rows[0], cols[0])), cols


def integer_kernel(a: IntMatrix) -> list[LatticeVector]:
    """Basis of the saturated integer kernel {x in Z^n : A x = 0}."""
    at = a.transpose()
    h, u = hermite_normal_form(at)
    basis = []
    for i in range(at.nrows):
        if all(x == 0 for x in h.rows[i]):
            basis.append(LatticeVector(u.rows[i]))
    return basis


def rational_solve(rows: list[LatticeVector], rhs: list) -> Covector | None:
    """Solve <x, row_i> = rhs_i over Q; ``None`` when the system is inconsistent.

    The rank r is the size of the largest nonsingular minor.  On the first r
    coordinates carrying one, x solves the first r rows independent there by
    the adjugate; its other entries are 0, the free variables that
    Gauss-Jordan elimination leaves at zero.  Every row is checked in
    integers (<num, row_i> = rhs_i * det) before any ``Fraction`` is built.
    """
    if not rows:
        raise LatticeError("empty system")
    a = [r.coords for r in rows]
    n = len(a[0])
    num, det = [0] * n, 1
    minors = (
        (ks, ix)
        for r in range(min(len(a), n), 0, -1)
        for ks in itertools.combinations(range(n), r)
        for ix in itertools.combinations(range(len(a)), r)
    )
    for ks, ix in minors:
        square = [[a[i][k] for k in ks] for i in ix]
        if _det(square):
            det, cols = adjugate(square)
            for j, k in enumerate(ks):
                num[k] = sum([rhs[i] * col[j] for i, col in zip(ix, cols)])
            break
    if any(sum(map(operator.mul, num, row)) != b * det for row, b in zip(a, rhs)):
        return None
    return Covector(tuple([x // det if x % det == 0 else Fraction(x, det) for x in num]))


def minimal_integral_scale(rows: list[LatticeVector], rhs: list[int]):
    """Least k >= 1 such that <x, row_i> = k * rhs_i has an integer solution x.

    Returns (k, witness Covector with integer entries) or None when no
    positive multiple admits a solution.
    """
    a = IntMatrix.from_vectors(rows)
    # solve A x = k b; transpose to act on column vector x: rows of A pair with x
    s, u, v = smith_normal_form(a)
    ub = [sum(q * b for q, b in zip(urow, rhs)) for urow in u.rows]
    m, n = a.nrows, a.ncols
    k = 1
    for i in range(m):
        d = s.rows[i][i] if i < min(m, n) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            k = math.lcm(k, d // math.gcd(d, ub[i])) if ub[i] != 0 else k
    y = []
    for j in range(n):
        d = s.rows[j][j] if j < min(m, n) else 0
        if d == 0:
            y.append(0)
        else:
            y.append(k * ub[j] // d if j < m else 0)
    # x = V y
    x = [sum(v.rows[i][j] * y[j] for j in range(n)) for i in range(n)]
    witness = Covector(tuple(x))
    for row, b in zip(rows, rhs):
        if witness.pair(row) != k * b:
            return None
    return k, witness


def extended_gcd_vector(coords: tuple[int, ...]) -> tuple[int, list[int]]:
    """g = gcd(coords) together with integers w such that sum w_i coords_i = g."""
    g, w = 0, [0] * len(coords)
    for i, c in enumerate(coords):
        if c == 0:
            continue
        if g == 0:
            g, w = abs(c), [0] * len(coords)
            w[i] = 1 if c > 0 else -1
            continue
        x, y, gg = _xgcd(g, c)
        w = [x * t for t in w]
        w[i] += y
        g = gg
    if g == 0:
        raise LatticeError("extended gcd of the zero vector")
    return g, w


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def hyperplane_basis(m: Covector) -> IntMatrix:
    """Unimodular basis matrix B = [k1 ... k_{r-1} w] adapted to a primitive m.

    The first r-1 columns span ker(m) as a saturated sublattice and the last
    column w satisfies <m, w> = 1, so expressing a vector in this basis puts
    <m, .> into the final coordinate.  On integer rows: two Hermite passes
    give ker(m) in Hermite form (so standard covectors yield the identity),
    and the extended gcd of m gives w.
    """
    mi = m.primitive().coords
    h, u = [[x] for x in mi], _identity_rows(len(mi))
    _hermite_rows(h, u)
    kernel = [row for row, (x,) in zip(u, h) if x == 0]
    _hermite_rows(kernel, [[] for _ in kernel])
    w = extended_gcd_vector(mi)[1]
    rows = tuple(zip(*kernel, w))
    if abs(_det(rows)) != 1:
        raise LatticeError("failed to complete covector to a unimodular basis")
    return IntMatrix(rows)
