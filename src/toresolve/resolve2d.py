"""Minimal resolution of two-dimensional toric singularities.

The resolution fan is read off the boundary of conv((cone ∩ N) - {0}), whose
lattice points are the Hilbert basis; the negative-continued-fraction
expansion gives an independent arithmetic route to the same
self-intersection data, kept for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cones import Cone, Fan, _simplicial_cone, make_fan
from .hilbert import hilbert_basis
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
    the hull boundary, which in rank 2 are exactly the Hilbert basis (Oda,
    *Convex Bodies and Algebraic Geometry*, 1.6); consecutive rays span
    basic cones, and each interior ray u_i satisfies
    u_{i-1} + u_{i+1} = b_i * u_i with the i-th exceptional curve of
    self-intersection -b_i.
    """
    if c.lattice_rank != 2:
        raise Resolve2dError("minimal resolution is a rank-2 operation")
    if not (c.is_pointed and c.is_full_dimensional):
        raise Resolve2dError("need a pointed full-dimensional cone")
    chain = angular_order(hilbert_basis(c).members)
    cones = []
    for u, v in zip(chain, chain[1:]):
        cone, det, _cols = _simplicial_cone([u, v])
        if det not in (1, -1):
            raise Resolve2dError(
                f"hull boundary pair {u.coords}, {v.coords} is not basic; "
                "Hilbert-basis computation is inconsistent"
            )
        cones.append(cone)
    exceptional = []
    for i in range(1, len(chain) - 1):
        u_prev, u, u_next = chain[i - 1], chain[i], chain[i + 1]
        s = u_prev + u_next
        b = None
        for su, cu in zip(s.coords, u.coords):
            if cu != 0:
                if su % cu != 0:
                    raise Resolve2dError(
                        f"three-term relation fails at ray {u.coords}"
                    )
                q = su // cu
                if b is None:
                    b = q
                elif b != q:
                    raise Resolve2dError(
                        f"three-term relation inconsistent at ray {u.coords}"
                    )
        if b is None or s != b * u:
            raise Resolve2dError(f"three-term relation fails at ray {u.coords}")
        if b < 2:
            raise Resolve2dError(
                f"self-intersection -{b} at {u.coords}: resolution is not minimal"
            )
        exceptional.append((u, -b))
    return make_fan(cones), exceptional
