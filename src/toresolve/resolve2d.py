"""Minimal resolution of two-dimensional toric singularities.

The Hirzebruch-Jung continued fraction n/q of the cone is the route: its
chain ``hilbert.hilbert_chain`` is at once the Hilbert basis, the lattice
points of the hull floor of conv((cone ∩ N) - {0}) and the rays of the
minimal resolution, and its terms are the negated self-intersections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cones import Cone, Fan, simplicial_cone
from .hilbert import _hj_terms, hilbert_chain
from .lattice import LatticeVector


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
    return CFExpansion(p=p, q=q, terms=_hj_terms(p, q))


def minimal_resolution(c: Cone) -> tuple[Fan, list[tuple[LatticeVector, int]]]:
    """Unique minimal resolution of a pointed full-dimensional rank-2 cone.

    The rays of the output fan are the chain u_0, ..., u_{r+1} of
    ``hilbert_chain``, the Hilbert basis in counterclockwise order (Oda,
    *Convex Bodies and Algebraic Geometry*, 1.6), and its cones are the
    consecutive pairs, each basic as det(u_i, u_{i+1}) = 1.  Each interior ray
    u_i carries the exceptional curve of self-intersection -b_i, b_i >= 2 the
    i-th term of the continued fraction with u_{i-1} + u_{i+1} = b_i u_i.  The
    recurrence that builds the chain makes these identities, so the fan is
    built without validation.  A cone whose parallelepiped has more than
    ``hilbert.MAX_COSETS`` points raises ``ConeError``.
    """
    if c.lattice_rank != 2:
        raise Resolve2dError("minimal resolution is a rank-2 operation")
    if not (c.is_pointed and c.is_full_dimensional):
        raise Resolve2dError("need a pointed full-dimensional cone")
    chain, terms = hilbert_chain(c)
    cones = sorted(
        (simplicial_cone([u, v]) for u, v in zip(chain, chain[1:])),
        key=lambda cone: tuple(g.coords for g in cone.generators),
    )
    return Fan(2, tuple(cones)), [(u, -b) for u, b in zip(chain[1:], terms)]
