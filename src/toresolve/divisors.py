"""Invariant divisors as piecewise-linear support functions; discrepancies.

A support function is stored by its values on the primitive ray generators
of a fan, together with (optionally) one linear representative per maximal
cone.  Cartier-ness and the projectivity certificate are exact-rational
decisions; no tolerances anywhere.  Representatives built by hand, such as
the completion certificates' (one adjugate per triangle), are verified by
``is_strictly_upper_convex``: each must interpolate its cone's ray values.
That check pairs every cone's representative with every fan ray, on rows
(ray, coordinates, value) read once per call; in rank 3 with integral
representatives the pairing is written out on the unpacked entries, and
cone membership is tested only for the few rays at or below a
representative that are not its cone's generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

from .classify import gorenstein_data
from .cones import Cone, Fan
from .lattice import Covector, LatticeVector, minimal_integral_scale, rational_solve


class DivisorError(ValueError):
    """Domain error raised by divisor operations."""


@dataclass(frozen=True)
class SupportFunction:
    """Piecewise-linear function on a fan, determined by integer ray values.

    ``linear_reps`` maps the index of a maximal cone to a rational covector
    agreeing with the function on that cone's rays; it is filled in by
    ``with_linear_representatives`` (or by hand for certificates).
    """

    fan: Fan
    ray_values: dict[tuple[int, ...], int]
    linear_reps: dict[int, Covector] | None = None

    def value(self, ray: LatticeVector) -> int:
        try:
            return self.ray_values[ray.coords]
        except KeyError:
            raise DivisorError(f"ray {ray.coords} is not a ray of the fan")

    def scaled(self, k: int) -> "SupportFunction":
        return SupportFunction(
            fan=self.fan,
            ray_values={r: k * v for r, v in self.ray_values.items()},
            linear_reps=(
                None
                if self.linear_reps is None
                else {i: k * m for i, m in self.linear_reps.items()}
            ),
        )


def canonical_support(f: Fan) -> SupportFunction:
    """The support function with value one on every ray (the canonical divisor)."""
    return SupportFunction(fan=f, ray_values={r.coords: 1 for r in f.rays()})


def _cone_representative(cone: Cone, psi: SupportFunction) -> Covector | None:
    """The covector m with <m, v> = psi(v) on the cone's rays, if any."""
    return rational_solve(list(cone.generators), [psi.value(r) for r in cone.generators])


def with_linear_representatives(psi: SupportFunction) -> SupportFunction | None:
    """Attach a rational linear representative to every maximal cone.

    Returns ``None`` when some maximal cone admits no linear interpolant of
    the ray values (the function is not Q-Cartier on this fan).
    """
    reps: dict[int, Covector] = {}
    for i, cone in enumerate(psi.fan.maximal_cones):
        m = _cone_representative(cone, psi)
        if m is None:
            return None
        reps[i] = m
    return replace(psi, linear_reps=reps)


def is_cartier(psi: SupportFunction) -> bool:
    """True when every maximal cone carries an integral linear representative."""
    return qcartier_index(psi) == 1


def qcartier_index(psi: SupportFunction) -> int | None:
    """Least k >= 1 such that k*psi is integrally linear on each maximal cone.

    ``None`` when some cone admits no rational interpolant at all.
    """
    k = 1
    for cone in psi.fan.maximal_cones:
        rays = list(cone.generators)
        values = [psi.value(r) for r in rays]
        result = minimal_integral_scale(rays, values)
        if result is None:
            return None
        k = math.lcm(k, result[0])
    return k


def is_strictly_upper_convex(psi: SupportFunction) -> bool:
    """Ampleness-style certificate: each cone's representative strictly dominates.

    For every maximal cone sigma with representative m and every fan ray v
    outside sigma, <m, v> must strictly exceed psi(v); on sigma's own rays
    equality is required.  All comparisons are exact.  Each ray is read once,
    into a row (v, its coordinates, psi(v)); per cone, one pass over the rows
    lists the rays whose margin <m, v> - psi(v) is at most zero, and
    membership in sigma is tested only when more of them come back than
    sigma has generators, which the interpolation check puts among them.
    In rank 3 with an integral m the pairings are written out on unpacked
    entries; other ranks and ``Fraction`` representatives pair by sums.
    """
    reps = psi.linear_reps
    if reps is None:
        raise DivisorError("missing linear representatives; compute them first")
    rows = [(v, *v.coords, psi.value(v)) for v in psi.fan.rays()]
    for i, cone in enumerate(psi.fan.maximal_cones):
        if i not in reps:
            raise DivisorError(f"no linear representative for cone {i}")
        m = reps[i].coords
        gens = cone.generators
        if len(m) == 3 and all(type(a) is int for a in m):
            m0, m1, m2 = m
            for r in gens:
                x, y, z = r.coords
                if m0 * x + m1 * y + m2 * z != psi.value(r):
                    raise DivisorError(f"representative of cone {i} does not interpolate ray {r.coords}")
            low = [v for v, x, y, z, h in rows if m0 * x + m1 * y + m2 * z <= h]
        else:
            for r in gens:
                if sum(map(mul, m, r.coords)) != psi.value(r):
                    raise DivisorError(f"representative of cone {i} does not interpolate ray {r.coords}")
            low = [row[0] for row in rows if sum(map(mul, m, row[1:-1])) <= row[-1]]
        if len(low) > len(gens):
            own = {r.coords for r in gens}
            if not all(v.coords in own or cone.contains(v) for v in low):
                return False
    return True


@dataclass(frozen=True)
class DiscrepancyReport:
    """Per-exceptional-ray discrepancies of a refinement over a graded base cone."""

    base_cone: Cone
    m_sigma: Covector
    entries: tuple[tuple[LatticeVector, Fraction], ...]

    @property
    def is_crepant(self) -> bool:
        return all(a == 0 for _, a in self.entries)

    @property
    def is_log_terminal_witness(self) -> bool:
        return all(a > -1 for _, a in self.entries)


def _refinement_covers_base(base: Cone, refinement: Fan) -> bool:
    """Exact support equality via wall pairing.

    Every refinement cone must sit inside the base and have full dimension;
    every wall must either lie on the base boundary or be shared by exactly
    two cones.  For a convex base this forces the union to be the base.
    """
    r = base.lattice_rank
    cones = refinement.maximal_cones
    if not cones:
        return False
    wall_count: dict[tuple, int] = {}
    for c in cones:
        if c.dim != r or not base.contains_cone(c):
            return False
        # facets of a pointed full-dimensional cone = tight sets of its inequalities
        for mi in c.inequalities:
            key = tuple(sorted(g.coords for g in c.generators if mi.pair(g) == 0))
            wall_count[key] = wall_count.get(key, 0) + 1
    for key, count in wall_count.items():
        if count == 2:
            continue
        if count > 2:
            return False
        wall_gens = [LatticeVector(t) for t in key]
        on_boundary = any(
            all(mi.pair(g) == 0 for g in wall_gens) for mi in base.inequalities
        )
        if not on_boundary:
            return False
    return True


def discrepancies(base: Cone, refinement: Fan) -> DiscrepancyReport:
    """Discrepancy of each ray the refinement adds over a Q-Gorenstein base.

    The coefficient of a new ray v is <m_sigma, v> - 1; the report is keyed
    by primitive ray generators in canonical order.
    """
    gd = gorenstein_data(base)
    if gd is None:
        raise DivisorError("discrepancies require a Q-Gorenstein base cone")
    m, _index = gd
    if not _refinement_covers_base(base, refinement):
        raise DivisorError("refinement support does not match the base cone")
    base_rays = {g.coords for g in base.generators}
    entries = tuple(
        (v, m.pair(v) - 1) for v in refinement.rays() if v.coords not in base_rays
    )
    return DiscrepancyReport(base_cone=base, m_sigma=m, entries=entries)
