"""Empirical bias series over represented primes and their sign-change stats.

Sums of coordinate powers are exact integers; only the final quotients are
floats. Series indexed by prime count sample at stride multiples, matching
the plotted points of the experiments this package reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SieveCapacityError
from .forms import QuadraticForm, RepTable, ensure_table
from .polynomials import BivariatePolynomial
from .primes import CongruenceClass, stride_primes

MAX_MOMENT_POWER = 8


@dataclass(frozen=True)
class MomentSums:
    """Exact sums of x^k and y^k over canonical pairs in a congruence class."""

    cls: CongruenceClass
    k: int
    sum_a: int
    sum_b: int
    count: int


@dataclass(frozen=True)
class BiasPoint:
    """One sampled point of a bias series; F is None where sum_b = 0."""

    N: int
    PrN: int
    sum_a: int
    sum_b: int

    @property
    def F(self) -> float | None:
        if self.sum_b == 0:
            return None
        return self.sum_a / self.sum_b


@dataclass(frozen=True)
class BiasSeries:
    """Bias points at N = stride, 2*stride, ..., strictly increasing."""

    form: QuadraticForm
    cls: CongruenceClass
    stride: int
    points: list[BiasPoint]

    def grid(self) -> list[int]:
        return [pt.N for pt in self.points]

    def values(self) -> list[tuple[int, float | None]]:
        return [(pt.N, pt.F) for pt in self.points]


def moment_sum(
    form: QuadraticForm,
    cls: CongruenceClass,
    k: int,
    x_limit: int,
    rep_table: RepTable | None = None,
) -> MomentSums:
    """Exact sums of x^k and y^k over canonical pairs with p <= x_limit in cls.

    Each canonical pair of a prime contributes one term (general forms can
    contribute several pairs per prime).
    """
    if k < 0 or k > MAX_MOMENT_POWER:
        raise ValueError(f"moment power {k} outside supported range 0..{MAX_MOMENT_POWER}")
    table = ensure_table(form, x_limit, rep_table).slice_below(x_limit)
    table = table.slice_class(cls)
    sum_a = sum(int(v) ** k for v in table.x.tolist())
    sum_b = sum(int(v) ** k for v in table.y.tolist())
    return MomentSums(cls=cls, k=k, sum_a=sum_a, sum_b=sum_b, count=len(table))


def poly_sum(
    form: QuadraticForm,
    cls: CongruenceClass,
    poly: BivariatePolynomial,
    x_limit: int,
    rep_table: RepTable | None = None,
) -> Fraction:
    """Exact sum of poly(x, y) over qualifying canonical pairs."""
    if poly.is_zero:
        raise ValueError("zero polynomial rejected")
    table = ensure_table(form, x_limit, rep_table).slice_below(x_limit)
    table = table.slice_class(cls)
    total = Fraction(0)
    for _, x, y in table.rows():
        total += poly.evaluate(x, y)
    return total


def _prefix_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sums of the first k values for each k in idx, exact in int64."""
    cum = np.zeros(values.size + 1, dtype=np.int64)  # leading 0: index k sums k rows
    np.cumsum(values, out=cum[1:])
    return cum[idx]


def bias_series(
    form: QuadraticForm,
    cls: CongruenceClass,
    n_max: int,
    stride: int = 100,
    rep_table: RepTable | None = None,
) -> BiasSeries:
    """Bias points at each multiple of stride up to the prime index n_max.

    The N-th point accumulates canonical pairs over primes p <= Pr(N) lying
    in the class. Points with an empty y-sum keep F undefined. The Pr(N)
    come from `stride_primes`, one streamed pass shared by every series on
    the same (n_max, stride) grid.
    """
    pr = stride_primes(n_max, stride)
    pr_last = int(pr[-1])
    table = ensure_table(form, pr_last, rep_table)
    table = table.slice_below(pr_last).slice_class(cls)
    # max coordinate is sqrt(p/a) <= sqrt(Pr(N)); guard the int64 prefix sums
    if table.p.size and int(table.p.size) * int(math.isqrt(pr_last)) >= 2**62:
        raise SieveCapacityError("prefix sums would overflow int64 accumulation")
    ns = np.arange(stride, n_max + 1, stride)
    idx = np.searchsorted(table.p, pr, side="right")
    points = [
        BiasPoint(N=n, PrN=pr_n, sum_a=a, sum_b=b)
        for n, pr_n, a, b in zip(
            ns.tolist(),
            pr.tolist(),
            _prefix_sums(table.x, idx).tolist(),
            _prefix_sums(table.y, idx).tolist(),
        )
    ]
    return BiasSeries(form=form, cls=cls, stride=stride, points=points)


def ratio_series(
    series_class: BiasSeries, series_all: BiasSeries
) -> list[tuple[int, float | None]]:
    """Pointwise ratio F_class / F_all on the shared grid.

    Undefined points (either side) propagate as None.
    """
    if series_class.form != series_all.form:
        raise ValueError("ratio of series over different forms")
    if series_class.stride != series_all.stride or series_class.grid() != series_all.grid():
        raise ValueError("ratio of series on different grids")
    out: list[tuple[int, float | None]] = []
    for pc, pa in zip(series_class.points, series_all.points):
        fc, fa = pc.F, pa.F
        if fc is None or fa is None or fa == 0.0:
            out.append((pc.N, None))
        else:
            out.append((pc.N, fc / fa))
    return out


def sign_changes(
    u: list[tuple[int, float | None]], v: list[tuple[int, float | None]]
) -> tuple[int, list[int]]:
    """Strict sign changes of u - v along a shared grid.

    Pairs where either value is undefined are skipped; exact zero differences
    neither count nor reset the running sign. Returns the crossing count and
    the grid positions where the new sign is first seen.
    """
    if [n for n, _ in u] != [n for n, _ in v]:
        raise ValueError("sign_changes needs matching grids")
    crossings: list[int] = []
    prev_sign = 0
    for (n, a), (_, b) in zip(u, v):
        if a is None or b is None:
            continue
        d = a - b
        if d == 0:
            continue
        sign = 1 if d > 0 else -1
        if prev_sign != 0 and sign != prev_sign:
            crossings.append(n)
        prev_sign = sign
    return len(crossings), crossings
