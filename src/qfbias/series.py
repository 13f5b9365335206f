"""Empirical bias series over represented primes and their sign-change stats.

Coordinate sums are exact int64 prefix sums; only the final quotients are
floats. Series indexed by prime count sample at stride multiples, matching
the plotted points of the experiments this package reproduces. A series is a
set of numpy columns, and NaN marks an undefined F or R (an empty CSV field).
`fold_series` cuts the `primes.segments` stream at the last Pr(N) itself;
`bias_series`, its reference, reads the Pr(N) off one `sieve_range` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SieveCapacityError
from .forms import QuadraticForm, RepTable, _x_extent, segment_rows
from .primes import CongruenceClass, nth_prime_bound, segments, sieve_range


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


def _prefix_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sums of the first k values for each k in idx, exact in int64."""
    cum = np.zeros(values.size + 1, dtype=np.int64)  # leading 0: index k sums k rows
    np.cumsum(values, out=cum[1:])
    return cum[idx]


def _last_index(n_max: int, stride: int) -> int:
    """The prime index N of the last grid point stride, 2*stride, ... <= n_max."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if n_max < stride:
        raise ValueError("n_max must be at least the stride")
    return n_max - n_max % stride


def _check_sums(form: QuadraticForm, rows: int, p: int) -> None:
    """Refuse int64 prefix sums over this many rows of form's primes up to p."""
    # a canonical row has 0 <= y < x, and x is within the ellipse's extent
    if rows * _x_extent(form, p) >= 2**62:
        raise SieveCapacityError("prefix sums would overflow int64 accumulation")


def bias_series(
    table: RepTable, cls: CongruenceClass, n_max: int, stride: int = 100
) -> BiasSeries:
    """Bias points at each multiple of stride up to the prime index n_max.

    The N-th point accumulates the table's canonical pairs over primes
    p <= Pr(N) lying in the class. Points with an empty y-sum keep F
    undefined. The Pr(N) are read off one `sieve_range` array, not the
    segment stream that `fold_series` cuts, so each checks the other.
    ValueError if the table does not cover the last Pr(N); `fold_series`
    needs no such table.
    """
    n = _last_index(n_max, stride)
    pr = sieve_range(2, nth_prime_bound(n))[stride - 1 : n : stride]
    pr_last = int(pr[-1])
    rows = table.slice_below(pr_last).slice_class(cls)
    _check_sums(table.form, rows.p.size, pr_last)
    ns = np.arange(stride, n_max + 1, stride)
    idx = np.searchsorted(rows.p, pr, side="right")
    points = np.column_stack(
        (ns, pr, _prefix_sums(rows.x, idx), _prefix_sums(rows.y, idx))
    ).astype(np.int64, copy=False)
    return BiasSeries(form=table.form, cls=cls, stride=stride, points=points)


def fold_series(
    seed: RepTable,
    classes: Sequence[CongruenceClass],
    n_max: int,
    stride: int = 100,
) -> list[BiasSeries]:
    """The bias series of every class, from one pass that builds no table.

    Each series equals `bias_series` on a table of the seed's form to the
    last Pr(N). One pass over `primes.segments(2, nth_prime_bound(N))`, cut
    at the N-th prime, takes the Pr(N) from its segments and adds each
    segment's rows to running x and y sums of every class. The rows come
    from `forms.segment_rows`: the seed's where it covers them, so none of
    its primes is enumerated again, and enumerated above its limit. Give an
    empty seed (`forms.empty_table`) when there is no table to start from.
    """
    pr, sums = [], [[] for _ in classes]
    carry = np.zeros((len(classes), 2), dtype=np.int64)  # each class's (sum_a, sum_b)
    counts = [0] * len(classes)
    n, seen = _last_index(n_max, stride), 0
    for primes in segments(2, nth_prime_bound(n)):
        primes = primes[: n - seen]  # the last segment is cut at the N-th prime
        # a copy, so that keeping the points does not keep the segment
        at = primes[(stride - 1 - seen) % stride :: stride].copy()
        pr.append(at)
        seen += primes.size
        block = segment_rows(seed, primes)
        for i, cls in enumerate(classes):
            rows = block.slice_class(cls)
            counts[i] += rows.p.size
            _check_sums(seed.form, counts[i], int(primes[-1]))
            # the sums at the grid points, then over the whole block
            idx = np.append(np.searchsorted(rows.p, at, side="right"), rows.p.size)
            part = carry[i] + np.column_stack(
                (_prefix_sums(rows.x, idx), _prefix_sums(rows.y, idx))
            )
            sums[i].append(part[:-1])
            carry[i] = part[-1]
        if seen == n:
            break
    head = (np.arange(stride, n_max + 1, stride), np.concatenate(pr))
    return [
        BiasSeries(form=seed.form, cls=cls, stride=stride,
                   points=np.column_stack((*head, np.concatenate(s))).astype(np.int64, copy=False))
        for cls, s in zip(classes, sums)
    ]


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
