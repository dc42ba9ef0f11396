"""Host-speed normalization and a smooth quantile estimator for the timed loop.

The benchmark's host (a few vCPUs of a shared virtual machine) changes speed
by up to 2x in spells of seconds to minutes, in process CPU time as much as
in wall time.  To keep that out of the per-op time metrics, the loop times
a fixed reference kernel between ops, and every op's wall time is scaled by
``NOMINAL_REF_S`` over the median reference time measured around it.  The
kernel is pure Python exact arithmetic of the program's kind (integer
determinants, ``Fraction`` sums, tuple-keyed dicts) and never calls
``toresolve``, so a change to the program moves the scaled times in
proportion to the raw ones.  The correction is not exact: on slow spells the
reference slows more than short ops and less than the longest ones, so it
halves the host's effect on a run rather than removing it.

The median and tail latencies are Harrell-Davis estimates: a weighted mean
of all order statistics, with weights from a beta distribution centred on
the quantile.  A plain order statistic is one op's time and carries that
op's own noise; the estimate averages the ops near the quantile.
"""

from __future__ import annotations

import itertools
import math
import statistics
from fractions import Fraction
from time import perf_counter

# reference time on the 2-vCPU machine the baseline was taken on, so that
# scaled times read close to wall seconds there
NOMINAL_REF_S = 0.0035
# a reference sample is taken before the next op once this much op time has
# passed since the last one
REF_EVERY_S = 0.1
# each op is scaled by the median of this many reference samples around it
REF_WINDOW = 5

_POINTS = [(x, y, 1) for x in range(-2, 3) for y in range(-2, 2)]


def _reference_work() -> int:
    sums: dict[tuple[int, int], Fraction] = {}
    for a, b, c in itertools.combinations(_POINTS, 3):
        d = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        if d:
            key = (abs(d), a[0] - c[1])
            sums[key] = sums.get(key, Fraction(0)) + Fraction(a[1] - b[0], d)
    return len(sums)


def reference_s() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0


class Scaler:
    """Reference samples taken between ops, and the scale factor of each op."""

    def __init__(self):
        self.samples: list[float] = []
        self.owner: list[int] = []  # per op: index of the last sample before it
        self._since = math.inf

    def before_op(self) -> None:
        if self._since >= REF_EVERY_S:
            self.samples.append(reference_s())
            self._since = 0.0
        self.owner.append(len(self.samples) - 1)

    def after_op(self, dt: float) -> float:
        """dt scaled by the median of the latest reference samples."""
        self._since += dt
        return dt * NOMINAL_REF_S / statistics.median(self.samples[-REF_WINDOW:])

    def scaled(self, lat: list[float]) -> list[float]:
        """Each op's time times NOMINAL_REF_S over the median reference near it."""
        half = REF_WINDOW // 2
        last = len(self.samples) - REF_WINDOW
        out = []
        for dt, k in zip(lat, self.owner):
            lo = max(0, min(k - half, last))
            out.append(dt * NOMINAL_REF_S / statistics.median(self.samples[lo : lo + REF_WINDOW]))
        return out


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of values.

    The weight of the i-th smallest value is the mass of Beta((n+1)p,
    (n+1)(1-p)) on [(i-1)/n, i/n], here integrated by the midpoint rule on
    16 points per interval, in log space.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    sub = 16
    logs = []
    for j in range(n * sub):
        x = (j + 0.5) / (n * sub)
        logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * sub : (i + 1) * sub]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)
