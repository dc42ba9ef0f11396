"""Minimal resolution of two-dimensional toric singularities.

The resolution fan is read off the hull floor of conv((cone ∩ N) - {0})
(``hilbert.floor_facets``), whose lattice points are the Hilbert basis; the
negative-continued-fraction expansion gives an independent arithmetic route
to the same self-intersection data, kept for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cones import Cone, Fan, _simplicial_cone
from .hilbert import floor_facets
from .lattice import LatticeVector, angular_order


class Resolve2dError(ValueError):
    """Domain error raised by 2D resolution operations."""


@dataclass(frozen=True)
class CFExpansion:
    """Negative-regular continued fraction p/q = a1 - 1/(a2 - 1/(...)), all a_i >= 2."""

    p: int
    q: int
    terms: tuple[int, ...]

    def value(self):
        """Exact reconstruction of p/q from the terms."""
        from fractions import Fraction

        acc = Fraction(self.terms[-1])
        for a in reversed(self.terms[:-1]):
            acc = a - 1 / acc
        return acc


def cf_expansion(p: int, q: int) -> CFExpansion:
    """The unique all-terms-at-least-two expansion of p/q.

    Requires 0 < q < p with p, q coprime.
    """
    if not (0 < q < p):
        raise Resolve2dError(f"need 0 < q < p, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise Resolve2dError(f"p={p} and q={q} are not coprime")
    terms = []
    a, b = p, q
    while b > 0:
        t = -(-a // b)  # ceiling
        terms.append(t)
        a, b = b, t * b - a
    return CFExpansion(p=p, q=q, terms=tuple(terms))


def minimal_resolution(c: Cone) -> tuple[Fan, list[tuple[LatticeVector, int]]]:
    """Unique minimal resolution of a pointed full-dimensional rank-2 cone.

    The rays of the output fan are the lattice points on the bounded part of
    the hull boundary, read off ``floor_facets``; in rank 2 they are exactly
    the Hilbert basis (Oda, *Convex Bodies and Algebraic Geometry*, 1.6).
    In angular order, consecutive rays span basic cones, and each interior
    ray u_i satisfies u_{i-1} + u_{i+1} = b_i * u_i with the i-th exceptional
    curve of self-intersection -b_i; as det(u_{i-1}, u_i) = 1 in
    counterclockwise order, b_i = det(u_{i-1}, u_{i+1}).  The consecutive
    cones tile the cone by construction, so the fan is built without
    pairwise validation.  A parallelepiped too large to walk raises
    ``ConeError``.
    """
    if c.lattice_rank != 2:
        raise Resolve2dError("minimal resolution is a rank-2 operation")
    if not (c.is_pointed and c.is_full_dimensional):
        raise Resolve2dError("need a pointed full-dimensional cone")
    chain = angular_order(list({p for *_, points in floor_facets(c) for p in points}))
    cones = []
    for u, v in zip(chain, chain[1:]):
        cone, det = _simplicial_cone([u, v])
        if det not in (1, -1):
            raise Resolve2dError(
                f"hull boundary pair {u.coords}, {v.coords} is not basic; "
                "hull floor computation is inconsistent"
            )
        cones.append(cone)
    exceptional = []
    for u_prev, u, u_next in zip(chain, chain[1:], chain[2:]):
        b = u_prev.coords[0] * u_next.coords[1] - u_prev.coords[1] * u_next.coords[0]
        if u_prev + u_next != b * u:
            raise Resolve2dError(f"three-term relation fails at ray {u.coords}")
        if b < 2:
            raise Resolve2dError(
                f"self-intersection -{b} at {u.coords}: resolution is not minimal"
            )
        exceptional.append((u, -b))
    cones.sort(key=lambda cone: tuple(g.coords for g in cone.generators))
    return Fan(2, tuple(cones)), exceptional
