import random
import time
from fractions import Fraction

import pytest

from toresolve import hilbert
from toresolve.cones import is_basic, make_cone, make_fan, simplicial_cone
from toresolve.hilbert import hilbert_basis
from toresolve.resolve2d import Resolve2dError, cf_expansion, minimal_resolution
from toresolve.resolve3d import resolve
from toresolve.lattice import LatticeVector

from conftest import count_calls, hilbert_chain_resolution, random_pointed_cone, unimodular_2x2
from test_resolve3d import floor_corpus


def V(*coords):
    return LatticeVector(tuple(coords))


def test_cf_expansion_examples():
    assert cf_expansion(5, 4).terms == (2, 2, 2, 2)
    assert cf_expansion(2, 1).terms == (2,)
    # 3 - 1/(2 - 1/2) = 3 - 2/3 = 7/3
    assert cf_expansion(7, 3).terms == (3, 2, 2)


def test_cf_expansion_reconstructs_exactly(rng):
    import math

    for _ in range(100):
        p = rng.randint(2, 60)
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) != 1:
            continue
        e = cf_expansion(p, q)
        assert all(t >= 2 for t in e.terms)
        assert e.value() == Fraction(p, q)


def test_cf_expansion_preconditions():
    with pytest.raises(Resolve2dError):
        cf_expansion(4, 4)
    with pytest.raises(Resolve2dError):
        cf_expansion(6, 3)
    with pytest.raises(Resolve2dError):
        cf_expansion(3, 0)


def test_minimal_resolution_running_example():
    fan, exc = minimal_resolution(make_cone([V(1, 0), V(4, 5)]))
    assert [r.coords for r in fan.rays()] == [(1, 0), (1, 1), (4, 5)]
    assert len(fan.maximal_cones) == 2
    assert all(is_basic(c) for c in fan.maximal_cones)
    assert [(u.coords, b) for u, b in exc] == [((1, 1), -5)]


def test_minimal_resolution_basic_cone_unchanged():
    c = make_cone([V(1, 0), V(0, 1)])
    fan, exc = minimal_resolution(c)
    assert len(fan.maximal_cones) == 1 and exc == []
    assert fan.maximal_cones[0] == c


def test_minimal_resolution_dual_example_all_minus_two():
    fan, exc = minimal_resolution(make_cone([V(0, 1), V(5, -4)]))
    rays = [r.coords for r in fan.rays()]
    assert rays == [(0, 1), (1, 0), (2, -1), (3, -2), (4, -3), (5, -4)]
    assert sorted(b for _, b in exc) == [-2, -2, -2, -2]
    assert len(fan.maximal_cones) == 5


def test_self_intersections_match_continued_fraction():
    # normalized cones pos{(0,1), (p,-q)} carry self-intersection sequence
    # equal to the negated expansion of p/q, read along the ray chain
    for p, q in [(5, 4), (7, 3), (11, 7)]:
        fan, exc = minimal_resolution(make_cone([V(0, 1), V(p, -q)]))
        seq = [-b for _, b in exc]
        terms = list(cf_expansion(p, q).terms)
        assert seq == terms or seq == terms[::-1], (p, q, seq, terms)


def test_rays_equal_hilbert_basis_random(rng):
    checked = 0
    while checked < 30:
        c = random_pointed_cone(rng, 2, coord_bound=8)
        if c is None or not c.is_full_dimensional:
            continue
        fan, exc = minimal_resolution(c)
        assert {r.coords for r in fan.rays()} == {
            m.coords for m in hilbert_basis(c).members
        }
        assert all(is_basic(mc) for mc in fan.maximal_cones)
        for u, b in exc:
            assert b <= -2
        checked += 1


def test_minimal_resolution_matches_validated_fan(monkeypatch):
    """On 300 seeded rank-2 cones, the rank-2 floor corpus and the 12-term
    cone (0,1), (121393, -46368), n/q = [3, ..., 3], the fan and the
    self-intersections read off the continued-fraction chain equal the
    validated fan of the parallelepiped Hilbert basis in angular order and
    the quotients of its three-term relations; no Hilbert basis is computed,
    and the 12-term cone, whose parallelepiped has 121,393 points, resolves
    in under 2 s."""
    rng = random.Random(20261019)
    corpus = []
    while len(corpus) < 300:
        c = random_pointed_cone(rng, 2, coord_bound=9, max_gens=3)
        if c is not None and c.is_full_dimensional:
            corpus.append(c)
    corpus += floor_corpus()[1]
    twelve = make_cone([V(0, 1), V(121393, -46368)])
    calls = count_calls(monkeypatch, hilbert.hilbert_basis)
    resolved = [minimal_resolution(c) for c in corpus]
    start = time.perf_counter()
    resolved.append(minimal_resolution(twelve))
    assert time.perf_counter() - start < 2
    assert calls == []
    monkeypatch.undo()
    for c, got in zip([*corpus, twelve], resolved):
        assert got == hilbert_chain_resolution(c), c
    assert sum(bool(exc) for _, exc in resolved) >= 200
    assert [b for _, b in resolved[-1][1]] == [-3] * 12


def test_minimal_resolution_times_a_ray_is_the_resolution_of_the_product():
    """For sigma = cone((0, 1), (n, 1 - n)), n = 2 ... 30, and two random
    GL(2, Z) images of each, the rank-3 pipeline resolves sigma x R>=0 into
    the cones of the minimal resolution of sigma, each joined with e_3."""
    rng = random.Random(29)
    maps = unimodular_2x2()
    e3 = V(0, 0, 1)
    checked = 0
    for n in range(2, 31):
        for (a, b), (c, d) in [((1, 0), (0, 1)), rng.choice(maps), rng.choice(maps)]:
            gens = [V(a * x + b * y, c * x + d * y) for x, y in [(0, 1), (n, 1 - n)]]
            fan2, _exc = minimal_resolution(make_cone(gens))
            fan3, _trace = resolve(make_cone([V(*g.coords, 0) for g in gens] + [e3]))
            product = [
                simplicial_cone([V(*g.coords, 0) for g in mc.generators] + [e3]) for mc in fan2.maximal_cones
            ]
            assert len(fan2.maximal_cones) == n
            assert fan3 == make_fan(product), gens
            checked += 1
    assert checked == 87


def test_minimal_resolution_rejects_other_ranks():
    with pytest.raises(Resolve2dError):
        minimal_resolution(make_cone([V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)]))


def test_uniqueness_under_generator_order(rng):
    for _ in range(10):
        c = random_pointed_cone(rng, 2, coord_bound=6)
        if c is None or not c.is_full_dimensional:
            continue
        fan1, exc1 = minimal_resolution(c)
        reversed_cone = make_cone(list(reversed(list(c.generators))))
        fan2, exc2 = minimal_resolution(reversed_cone)
        assert fan1 == fan2
        assert sorted(exc1) == sorted(exc2)
