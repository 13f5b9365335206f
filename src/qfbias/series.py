"""Empirical bias series over represented primes and their sign-change stats.

Sums of coordinate powers are exact integers; only the final quotients are
floats. Series indexed by prime count sample at stride multiples, matching
the plotted points of the experiments this package reproduces. A series is a
set of numpy columns, and NaN marks an undefined F or R (an empty CSV field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SieveCapacityError
from .forms import QuadraticForm, RepTable
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


@dataclass(frozen=True, eq=False)
class BiasSeries:
    """Bias points at N = stride, 2*stride, ..., strictly increasing.

    `points` is one (n, 4) int64 array whose columns are N, Pr(N), sum_a and
    sum_b, the column order of the series CSV.
    """

    form: QuadraticForm
    cls: CongruenceClass
    stride: int
    points: np.ndarray

    @property
    def F(self) -> np.ndarray:
        """sum_a / sum_b at every point as float64, NaN where sum_b = 0."""
        sum_a, sum_b = self.points[:, 2], self.points[:, 3]
        # every sum stays below pi(4e9) * sqrt(4e9) ~ 1.2e13 < 2**53 inside the
        # sieve capacity, so both convert to float64 exactly and the quotient
        # is the correctly rounded value of Python's int / int
        out = np.full(sum_a.size, np.nan)
        np.divide(sum_a, sum_b, out=out, where=sum_b != 0)
        return out


def moment_sum(table: RepTable, cls: CongruenceClass, k: int, x_limit: int) -> MomentSums:
    """Exact sums of x^k and y^k over the table's pairs with p <= x_limit in cls.

    Each canonical pair of a prime contributes one term (general forms can
    contribute several pairs per prime). ValueError if the table does not
    cover x_limit.
    """
    if k < 0 or k > MAX_MOMENT_POWER:
        raise ValueError(f"moment power {k} outside supported range 0..{MAX_MOMENT_POWER}")
    table = table.slice_below(x_limit).slice_class(cls)
    sum_a = sum(int(v) ** k for v in table.x.tolist())
    sum_b = sum(int(v) ** k for v in table.y.tolist())
    return MomentSums(cls=cls, k=k, sum_a=sum_a, sum_b=sum_b, count=len(table))


def poly_sum(
    table: RepTable, cls: CongruenceClass, poly: BivariatePolynomial, x_limit: int
) -> Fraction:
    """Exact sum of poly(x, y) over the table's pairs with p <= x_limit in cls.

    ValueError if the table does not cover x_limit.
    """
    if poly.is_zero:
        raise ValueError("zero polynomial rejected")
    table = table.slice_below(x_limit).slice_class(cls)
    total = Fraction(0)
    for _, x, y in table.rows():
        total += poly.evaluate(x, y)
    return total


def _prefix_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sums of the first k values for each k in idx, exact in int64."""
    cum = np.zeros(values.size + 1, dtype=np.int64)  # leading 0: index k sums k rows
    np.cumsum(values, out=cum[1:])
    return cum[idx]


def series_limit(n_max: int, stride: int) -> int:
    """Pr(N) at the last grid point: the largest prime a bias series reads.

    A table that covers this bound serves `bias_series(table, cls, n_max,
    stride)` for every class.
    """
    return int(stride_primes(n_max, stride)[-1])


def bias_series(
    table: RepTable, cls: CongruenceClass, n_max: int, stride: int = 100
) -> BiasSeries:
    """Bias points at each multiple of stride up to the prime index n_max.

    The N-th point accumulates the table's canonical pairs over primes
    p <= Pr(N) lying in the class. Points with an empty y-sum keep F
    undefined. The Pr(N) come from `stride_primes`, one streamed pass shared
    by every series on the same (n_max, stride) grid. ValueError if the table
    does not cover `series_limit(n_max, stride)`.
    """
    pr = stride_primes(n_max, stride)
    pr_last = int(pr[-1])
    rows = table.slice_below(pr_last).slice_class(cls)
    # max coordinate is sqrt(p/a) <= sqrt(Pr(N)); guard the int64 prefix sums
    if rows.p.size and int(rows.p.size) * int(math.isqrt(pr_last)) >= 2**62:
        raise SieveCapacityError("prefix sums would overflow int64 accumulation")
    ns = np.arange(stride, n_max + 1, stride)
    idx = np.searchsorted(rows.p, pr, side="right")
    points = np.column_stack(
        (ns, pr, _prefix_sums(rows.x, idx), _prefix_sums(rows.y, idx))
    ).astype(np.int64, copy=False)
    return BiasSeries(form=table.form, cls=cls, stride=stride, points=points)


def _check_grids(u: BiasSeries, v: BiasSeries, what: str) -> None:
    # the grid starts at the stride, so equal grids mean equal strides
    if not np.array_equal(u.points[:, 0], v.points[:, 0]):
        raise ValueError(f"{what} of series on different grids")


def ratio_series(series_class: BiasSeries, series_all: BiasSeries) -> np.ndarray:
    """Pointwise ratio F_class / F_all on the shared grid, as float64.

    R is NaN where either F is undefined or F_all = 0.
    """
    if series_class.form != series_all.form:
        raise ValueError("ratio of series over different forms")
    _check_grids(series_class, series_all, "ratio")
    f_all = series_all.F
    with np.errstate(divide="ignore", invalid="ignore"):
        r = series_class.F / f_all
    r[f_all == 0.0] = np.nan
    return r


def sign_changes(u: BiasSeries, v: BiasSeries) -> tuple[int, np.ndarray]:
    """Strict sign changes of F_u - F_v along a shared grid.

    Points where either F is undefined are skipped; exact zero differences
    neither count nor reset the running sign. Returns the crossing count and
    the grid positions N where the new sign is first seen.
    """
    _check_grids(u, v, "sign changes")
    d = u.F - v.F
    keep = ~np.isnan(d) & (d != 0.0)
    positive, ns = d[keep] > 0.0, u.points[keep, 0]
    crossings = ns[1:][positive[1:] != positive[:-1]]
    return int(crossings.size), crossings
