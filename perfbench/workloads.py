"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload walks a fixed corpus in an order drawn from the run's seed,
the same order in every cycle, and a run ends only after whole blocks (see
``Workload.block``).  So the seed changes the op stream but not the work in
a cycle, and the digests recorded for one cycle cover every op of every
seed.  The inputs are not moved by lattice automorphisms per seed: the
program's cost is not invariant under them (one hull takes up to 2x longer to
resolve under one symmetry of the square than under another, one cone up to
7x longer to classify under one signed permutation of the coordinates), and
the ten slowest ops of a run, which make ``latency_tail_s``, are a handful
of such inputs; drawn per seed, they moved that metric by 15 to 30% between
seeds at equal work.

The program is always called through attributes of its modules, never
through names bound here, so the tracer's wrappers see the op's root call.
The modules are looked up by name because the package rebinds
``toresolve.classify`` to the function of that name.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from toresolve.classify import convex_hull_2d
from toresolve.cones import ConeError, make_cone
from toresolve.lattice import LatticeVector

# Seeds of the fixed base corpora.  31415926 is the criterion-3 corpus of the
# acceptance tests (ROADMAP "C3"); the others are fixed once and never change.
C3_SEED = 31415926
RANDOM_CONE_SEED = 27182818
CLASSIFY_CONE_SEED = 14142135
CLI_HULL_SEED = 16180339


@dataclass(frozen=True)
class Spec:
    """One op's input before construction: plain integers only."""

    kind: str  # "hull" (height-one cone over a polygon) or "cone"
    gens: tuple[tuple[int, ...], ...]  # generators as handed to make_cone
    option: str | None = None  # the CLI's --completion value

    @property
    def key(self) -> str:
        return json.dumps([self.kind, sorted(self.gens), self.option], separators=(",", ":"))


def _hull_spec(hull, option=None) -> Spec:
    return Spec("hull", tuple((x, y, 1) for x, y in hull), option)


def _cycles(corpus: list[Spec], seed: int) -> Iterator[Spec]:
    """The corpus in the seed's order, repeated: every cycle of a run is the same list."""
    order = list(corpus)
    random.Random(seed).shuffle(order)
    while True:
        yield from order


# ---------------------------------------------------------------------------
# base corpora
# ---------------------------------------------------------------------------


def _random_hulls(seed: int, lo: int, hi: int, count: int) -> list[list[tuple[int, int]]]:
    """The criterion-3 generator: hulls of 3 to 6 random points in [lo, hi]^2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pts = [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(rng.randint(3, 6))]
        hull = convex_hull_2d(pts)
        if len(hull) >= 3:
            out.append(hull)
    return out


def _random_cones(seed: int, bound: int, count: int) -> list[tuple[tuple[int, ...], ...]]:
    """Random pointed full-dimensional rank-3 cones on 3 to 5 vectors in [-bound, bound]^3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        vs = [tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(rng.randint(3, 5))]
        try:
            cone = make_cone([LatticeVector(v) for v in vs])
        except (ConeError, ValueError):
            continue
        if cone.is_full_dimensional:
            out.append(tuple(vs))
    return out


def resolve_small_specs(seed: int) -> Iterator[Spec]:
    """The first 20 C3 hulls in [-4,4]^2 and 40 random rank-3 cones in [-4,4]^3."""
    hulls = _random_hulls(C3_SEED, -4, 4, 20)
    cones = _random_cones(RANDOM_CONE_SEED, 4, 40)
    return _cycles([_hull_spec(h) for h in hulls] + [Spec("cone", g) for g in cones], seed)


def classify_shapes() -> list[tuple[tuple[int, int], ...]]:
    """The criterion-5 corpus: the 1,554 lattice triangles and quadrilaterals in [0,3]^2."""
    pts = list(itertools.product(range(4), repeat=2))
    shapes = []
    for n in (3, 4):
        for comb in itertools.combinations(pts, n):
            if len(convex_hull_2d(list(comb))) == n:
                shapes.append(comb)
    return shapes


def classify_specs(seed: int) -> Iterator[Spec]:
    """The criterion-5 shapes and 194 random rank-3 cones in [-3,3]^3 (one per 8 shapes)."""
    shapes = classify_shapes()
    cones = _random_cones(CLASSIFY_CONE_SEED, 3, len(shapes) // 8)
    return _cycles([_hull_spec(h) for h in shapes] + [Spec("cone", g) for g in cones], seed)


def cli_specs(seed: int) -> Iterator[Spec]:
    """One-cone resolve3d jobs over 120 hulls in [0,3]^2, half with --completion all, half 0."""
    hulls = _random_hulls(CLI_HULL_SEED, 0, 3, 120)
    return _cycles([_hull_spec(h, "all" if i % 2 == 0 else "0") for i, h in enumerate(hulls)], seed)


# ---------------------------------------------------------------------------
# exact facts about an input, computed here without the library
# ---------------------------------------------------------------------------


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _solve3(rows, rhs) -> tuple[Fraction, ...]:
    """x with <rows[i], x> = rhs[i], by Cramer's rule (rows independent)."""
    d = _det3(*rows)
    x = []
    for j in range(3):
        m = [list(r) for r in rows]
        for i in range(3):
            m[i][j] = rhs[i]
        x.append(Fraction(_det3(*m), d))
    return tuple(x)


def _rays(gens) -> list[tuple[int, ...]]:
    """Primitive extreme rays of a pointed full-dimensional cone, in input order."""
    prims = list(dict.fromkeys(tuple(x // math.gcd(*g) for x in g) for g in gens if any(g)))
    return [g for g in prims if not _in_cone_of(g, [h for h in prims if h != g])]


def _in_cone_of(g, others) -> bool:
    # Caratheodory: a non-extreme g has nonnegative coordinates in some basis of others
    for basis in itertools.combinations(others, 3):
        if _det3(*basis) and min(_solve3(list(zip(*basis)), g)) >= 0:
            return True
    return False


def _gorenstein_grading(rays) -> tuple[int, ...] | None:
    """The integral m with <m, r> = 1 on every ray, if the cone is Gorenstein."""
    basis = next(b for b in itertools.combinations(rays, 3) if _det3(*b))
    m = _solve3(basis, (1, 1, 1))
    if any(x.denominator != 1 for x in m) or any(
        sum(x * y for x, y in zip(m, r)) != 1 for r in rays
    ):
        return None
    return tuple(int(x) for x in m)


def _polygon_counts(rays) -> tuple[int, int]:
    """(lattice points, normalized area) of the height-one polygon of a Gorenstein cone.

    The rays lie on <m, .> = 1 with m primitive integral, where the
    determinant of three points is the normalized area of their triangle and
    lattice length is the gcd of the difference; Pick's formula counts points.
    """
    n = len(rays)
    # cyclic order: an edge is a pair with all other rays on one side of its plane
    nbrs: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        sides = {_det3(rays[i], rays[j], rays[k]) > 0 for k in range(n) if k not in (i, j)}
        if len(sides) == 1:
            nbrs[i].append(j)
            nbrs[j].append(i)
    order = [0, nbrs[0][0]]
    while len(order) < n:
        order.append(next(k for k in nbrs[order[-1]] if k != order[-2]))
    cyc = [rays[i] for i in order]
    area2 = sum(abs(_det3(cyc[0], cyc[i], cyc[i + 1])) for i in range(1, n - 1))
    boundary = sum(
        math.gcd(*(x - y for x, y in zip(cyc[i], cyc[(i + 1) % n]))) for i in range(n)
    )
    return (area2 + boundary) // 2 + 1, area2


# ---------------------------------------------------------------------------
# output checks: each returns None or a message naming what failed
# ---------------------------------------------------------------------------


def check_resolve(spec: Spec, out) -> str | None:
    fan, trace = out
    # Cones over a piece of index l > 1 are basic in its cover's sublattice of
    # index l, so their determinant in the original lattice is l.
    pieces = {s.piece: s.discrepancy.base_cone for s in trace.steps if s.piece is not None}
    index = dict.fromkeys(pieces, 1) | {i: cert.index for i, cert in trace.covers}
    for mc in fan.maximal_cones:
        gens = [g.coords for g in mc.generators]
        owner = next((i for i, p in pieces.items() if all(p.contains(g) for g in mc.generators)), None)
        if len(gens) != 3 or abs(_det3(*gens)) != index.get(owner, 1):
            return f"final cone {gens} is not basic in its piece's lattice"
    rays = _rays(spec.gens)
    m = _gorenstein_grading(rays)
    if m is not None:
        if any(sum(x * y for x, y in zip(m, r.coords)) != 1 for r in fan.rays()):
            return "a final ray is off height one"
        points, area2 = _polygon_counts(rays)
        if len(fan.rays()) != points:
            return f"{len(fan.rays())} rays for {points} polygon lattice points"
        if len(fan.maximal_cones) != area2:
            return f"{len(fan.maximal_cones)} cones for normalized area {area2}"
    elif not trace.is_crepant_after_canonical:
        return "trace is not crepant after the canonical step"
    return None


def check_classify(spec: Spec, r) -> str | None:
    chain = [r.smooth, r.terminal, r.canonical, r.log_terminal]
    if any(a and not b for a, b in zip(chain, chain[1:])):
        return f"implication chain broken: smooth/terminal/canonical/log-terminal = {chain}"
    rays = _rays(spec.gens)
    gorenstein = _gorenstein_grading(rays) is not None
    if r.gorenstein != gorenstein:
        return f"gorenstein flag {r.gorenstein}, expected {gorenstein}"
    if gorenstein:
        points, _ = _polygon_counts(rays)
        elementary = points == len(rays)
        if r.terminal != elementary:
            return f"terminal {r.terminal} but polygon elementary {elementary}"
    return None


def check_cli(spec: Spec, out) -> str | None:
    rc, data = out
    if rc != 0:
        return f"exit code {rc}"
    result = json.loads(data)["results"][0]
    points, area2 = _polygon_counts(spec.gens)
    if len(result["final_rays"]) != points or len(result["maximal_cones"]) != area2:
        return "final fan does not match the polygon's lattice points and area"
    # a basic cone has no completion step and exactly one completion
    counts = [s["census_after"]["completions"] for s in result["trace"] if s["phase"] == "completion"]
    expected = counts[0] if counts and spec.option == "all" else 1
    if len(result["completions"]) != expected:
        return f"{len(result['completions'])} completions written, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# digests: canonical serializations of each output, hashed
# ---------------------------------------------------------------------------


def _hash(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_resolve(out) -> str:
    fan, trace = out
    return _hash(
        {
            "cones": [[g.coords for g in mc.generators] for mc in fan.maximal_cones],
            "steps": [
                {
                    "phase": s.phase,
                    "piece": s.piece,
                    "centers": [cell.vertices for cell in s.centers],
                    "new_rays": [r.coords for r in s.new_rays],
                    "discrepancy": None
                    if s.discrepancy is None
                    else [(v.coords, str(a)) for v, a in s.discrepancy.entries],
                    "census_after": s.census_after,
                }
                for s in trace.steps
            ],
            "covers": [
                (i, cert.index, cert.sublattice_basis.rows) for i, cert in trace.covers
            ],
        }
    )


def digest_classify(r) -> str:
    q = r.q_gorenstein
    return _hash(
        {
            "smooth": r.smooth,
            "q_factorial": r.q_factorial,
            "q_gorenstein": None if q is None else ([str(x) for x in q[0].coords], q[1]),
            "gorenstein": r.gorenstein,
            "terminal": r.terminal,
            "canonical": r.canonical,
            "log_terminal": r.log_terminal,
            "lci": r.lci,
            "rational": r.rational,
            "embedding_dim": r.embedding_dim,
        }
    )


def digest_cli(out) -> str:
    return hashlib.sha256(out[1]).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def _build_cone(spec: Spec, workdir: str, index: int):
    return make_cone([LatticeVector(g) for g in spec.gens])


def _build_job(spec: Spec, workdir: str, index: int):
    path = os.path.join(workdir, f"job-{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"lattice_rank": 3, "cones": [{"generators": [list(g) for g in spec.gens]}]}, fh)
    return path, spec.option


_resolve3d = importlib.import_module("toresolve.resolve3d")
_classify = importlib.import_module("toresolve.classify")
_cli = importlib.import_module("toresolve.cli")


def _run_resolve(cone, workdir):
    return _resolve3d.resolve(cone)


def _run_classify(cone, workdir):
    return _classify.classify(cone)


def _run_cli(job_and_option, workdir):
    job, option = job_and_option
    out = os.path.join(workdir, "out.json")
    rc = _cli.main(["resolve3d", "--in", job, "--out", out, "--completion", option])
    with open(out, "rb") as fh:
        data = fh.read()
    os.remove(out)
    return rc, data


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int], Iterator[Spec]]
    build: Callable  # (spec, workdir, index) -> the op's argument
    run: Callable  # (argument, workdir) -> output
    check: Callable  # (spec, output) -> None or a failure message
    digest: Callable  # output -> hex digest
    # A run ends only after whole blocks, so its mix of inputs does not depend on
    # how fast the machine is.  Where ops are slow and few, a block is a whole
    # cycle of the corpus, about 13 scaled seconds on a 2-core VM, so a 15 s run is two
    # cycles; where ops are many and cheap, 9 ops.
    block: int
    pool: int  # one whole cycle of inputs, built during set-up and traced by --trace 1; later cycles are built again between ops


WORKLOADS = {
    w.name: w
    for w in [
        Workload("resolve-small", resolve_small_specs, _build_cone, _run_resolve,
                 check_resolve, digest_resolve, block=60, pool=60),
        Workload("classify", classify_specs, _build_cone, _run_classify,
                 check_classify, digest_classify, block=9, pool=1748),
        Workload("cli-completions", cli_specs, _build_job, _run_cli,
                 check_cli, digest_cli, block=120, pool=120),
    ]
}


def inputs(wl: Workload, seed: int, workdir: str) -> Iterator[tuple[Spec, object]]:
    """The op stream: the first ``wl.pool`` inputs are built now, during set-up."""
    specs = wl.specs(seed)
    pool = [(spec, wl.build(spec, workdir, i)) for i, spec in zip(range(wl.pool), specs)]

    def stream():
        yield from pool
        for i, spec in enumerate(specs, start=wl.pool):
            yield spec, wl.build(spec, workdir, i)

    return stream()
